/** @file Integration tests: the full INDRA machine surviving the
 * paper's attack classes with byte-exact state recovery. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "checkpoint/delta_backup.hh"
#include "core/system.hh"
#include "net/exploit.hh"
#include "sim/logging.hh"
#include "test_util.hh"

using namespace indra;
using core::IndraSystem;
using net::AttackKind;
using net::RequestStatus;

namespace
{

SystemConfig
testConfig()
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    return cfg;
}

net::DaemonProfile
shortDaemon(const std::string &name = "httpd",
            std::uint64_t instr = 25000)
{
    net::DaemonProfile p = net::daemonByName(name);
    p.instrPerRequest = instr;
    return p;
}

net::ServiceRequest
request(std::uint64_t seq, AttackKind kind = AttackKind::None)
{
    net::ServiceRequest r;
    r.seq = seq;
    r.attack = kind;
    return r;
}

/** Byte images of every page currently mapped for the service. */
std::map<Vpn, std::vector<std::uint8_t>>
imagePages(IndraSystem &sys, std::size_t slot)
{
    std::map<Vpn, std::vector<std::uint8_t>> image;
    os::Process &proc = sys.kernel().process(sys.slot(slot).pid);
    for (Vpn vpn : proc.space->mappedPages())
        image[vpn] = sys.physMem().snapshotFrame(
            proc.space->pageInfo(vpn).pfn);
    return image;
}

} // anonymous namespace

TEST(System, BootAndDeploy)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    EXPECT_TRUE(sys.booted());
    EXPECT_GT(sys.resurrectorFrames(), 0u);
    std::size_t slot = sys.deployService(shortDaemon());
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(sys.slot(slot).coreId, 1u);
}

// A freshly deployed service's load image and boot capture keep a byte
// buffer only for pages that hold written bytes: never-written pages,
// which are nearly all of them, cost no host memory.
TEST(System, FreshServiceImagesKeepNoZeroPages)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    os::Process &proc = sys.kernel().process(sys.slot(slot).pid);
    std::size_t mapped = 0;
    std::size_t written = 0;
    for (Vpn vpn : proc.space->mappedPages()) {
        ++mapped;
        written +=
            !sys.physMem().isZeroFrame(proc.space->pageInfo(vpn).pfn);
    }
    EXPECT_LT(written, mapped);
    EXPECT_EQ(sys.slot(slot).recovery->bufferedPages(), written);
    EXPECT_EQ(sys.slot(slot).macro->bufferedPages(), written);
}

TEST(SystemDeath, DoubleBootPanics)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    EXPECT_DEATH(sys.boot(), "twice");
}

TEST(SystemDeath, DeployBeforeBootPanics)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    EXPECT_DEATH(sys.deployService(shortDaemon()), "before boot");
}

TEST(System, BenignRequestsAreServed)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    auto outcomes = sys.runScript(net::ClientScript::benign(5), slot);
    ASSERT_EQ(outcomes.size(), 5u);
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.status, RequestStatus::Served);
        EXPECT_GT(o.responseTime(), 0u);
        EXPECT_GT(o.instructions, 10000u);
    }
    EXPECT_EQ(sys.slot(slot).requestsProcessed, 5u);
}

TEST(System, ResurrectorMemoryIsInsulated)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    sys.deployService(shortDaemon());
    // Frame 0 belongs to the resurrector's RTS: a low-privilege core
    // touching it must be denied by the watchdog.
    EXPECT_EQ(sys.watchdog()->check(1, Privilege::Low, 0),
              mem::WatchdogVerdict::DeniedPrivate);
    // The resurrector itself passes.
    EXPECT_EQ(sys.watchdog()->check(0, Privilege::High, 0),
              mem::WatchdogVerdict::Allowed);
}

TEST(System, NoWatchdogDenialsDuringNormalService)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    sys.runScript(net::ClientScript::benign(3), slot);
    EXPECT_EQ(sys.watchdog()->denials(), 0u);
}

// One TEST_P per attack class: detection + revival + service health.
class AttackRecovery : public ::testing::TestWithParam<AttackKind>
{
};

TEST_P(AttackRecovery, DetectedAndRevived)
{
    setLogVerbosity(0);
    AttackKind kind = GetParam();
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());

    auto pre = sys.runScript(net::ClientScript::benign(2), slot);
    EXPECT_EQ(pre[1].status, RequestStatus::Served);

    auto bad = sys.processRequest(slot, request(3, kind));
    if (net::expectedViolation(kind) != mon::Violation::None) {
        EXPECT_EQ(bad.status, RequestStatus::DetectedRecovered);
        EXPECT_EQ(bad.violation, net::expectedViolation(kind));
    } else {
        EXPECT_EQ(bad.status, RequestStatus::CrashedRecovered);
    }

    // Service keeps answering legitimate clients afterwards.
    auto post = sys.processRequest(slot, request(4));
    EXPECT_EQ(post.status, RequestStatus::Served);
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, AttackRecovery,
    ::testing::Values(AttackKind::StackSmash, AttackKind::CodeInjection,
                      AttackKind::FuncPtrHijack,
                      AttackKind::FormatString, AttackKind::DosFlood));

// Byte-exact memory revival across every engine that supports it.
class MemoryExactRecovery
    : public ::testing::TestWithParam<CheckpointScheme>
{
};

TEST_P(MemoryExactRecovery, AttackDamageFullyRevoked)
{
    setLogVerbosity(0);
    SystemConfig cfg = testConfig();
    cfg.checkpointScheme = GetParam();
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("bind", 20000));

    sys.runScript(net::ClientScript::benign(2), slot);

    auto before = imagePages(sys, slot);
    auto bad = sys.processRequest(slot,
                                  request(3, AttackKind::DosFlood));
    EXPECT_EQ(bad.status, RequestStatus::CrashedRecovered);

    // Complete any lazy rollback, then compare byte-for-byte.
    sys.slot(slot).policy->drainRollback(0);
    auto after = imagePages(sys, slot);
    ASSERT_EQ(before.size(), after.size());
    for (const auto &[vpn, bytes] : before) {
        ASSERT_TRUE(after.count(vpn));
        EXPECT_EQ(bytes, after[vpn]) << "page " << std::hex << vpn;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MemoryExactRecovery,
    ::testing::Values(CheckpointScheme::DeltaBackup,
                      CheckpointScheme::VirtualCheckpoint,
                      CheckpointScheme::MemoryUpdateLog,
                      CheckpointScheme::SoftwareCheckpoint));

TEST(System, ResourcesRecoveredAfterAttack)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    os::Process &proc = sys.kernel().process(sys.slot(slot).pid);

    sys.processRequest(slot, request(1));
    std::uint32_t files = proc.resources->openFileCount();
    std::uint64_t heap = proc.resources->heapPages();

    sys.processRequest(slot, request(2, AttackKind::DosFlood));
    EXPECT_EQ(proc.resources->openFileCount(), files);
    EXPECT_EQ(proc.resources->heapPages(), heap);
    EXPECT_EQ(proc.resources->childCount(), 0u);
}

TEST(System, AuditLogSurvivesRecovery)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    os::Process &proc = sys.kernel().process(sys.slot(slot).pid);
    sys.processRequest(slot, request(1));
    std::size_t logged = proc.resources->log().size();
    sys.processRequest(slot, request(2, AttackKind::StackSmash));
    // Nothing already logged is rolled back (Section 3.3.3).
    EXPECT_GE(proc.resources->log().size(), logged);
}

TEST(System, DormantAttackTriggersHybridMacroRecovery)
{
    setLogVerbosity(0);
    SystemConfig cfg = testConfig();
    cfg.consecutiveFailureThreshold = 2;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 15000));

    EXPECT_EQ(sys.processRequest(slot, request(1)).status,
              RequestStatus::Served);
    // The dormant attack completes "normally".
    EXPECT_EQ(
        sys.processRequest(slot, request(2, AttackKind::Dormant)).status,
        RequestStatus::Served);

    // Damage surfaces: micro recovery can't help (it only undoes the
    // current request), so failures repeat until the hybrid scheme
    // falls back to the application checkpoint (Figure 8).
    std::vector<RequestStatus> statuses;
    for (std::uint64_t seq = 3; seq <= 10; ++seq) {
        statuses.push_back(
            sys.processRequest(slot, request(seq)).status);
        if (statuses.back() == RequestStatus::MacroRecovered)
            break;
    }
    ASSERT_FALSE(statuses.empty());
    EXPECT_EQ(statuses.back(), RequestStatus::MacroRecovered);

    // After macro recovery the service is healthy again.
    EXPECT_EQ(sys.processRequest(slot, request(11)).status,
              RequestStatus::Served);
}

TEST(System, PeriodicMacroCheckpointTaken)
{
    SystemConfig cfg = testConfig();
    cfg.macroCheckpointPeriod = 3;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 10000));
    sys.runScript(net::ClientScript::benign(7), slot);
    // Initial capture at deploy + every 3 processed requests.
    EXPECT_EQ(sys.slot(slot).macro->captures(), 3u);
}

TEST(System, WithoutBackupServiceIsLost)
{
    SystemConfig cfg = testConfig();
    cfg.checkpointScheme = CheckpointScheme::None;
    cfg.monitorEnabled = false;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 15000));

    auto bad = sys.processRequest(slot,
                                  request(1, AttackKind::DosFlood));
    EXPECT_EQ(bad.status, RequestStatus::Lost);
    // The restart penalty dwarfs any recovered request.
    EXPECT_GT(bad.responseTime(), cfg.serviceRestartCycles);
    // After the restart the service answers again.
    EXPECT_EQ(sys.processRequest(slot, request(2)).status,
              RequestStatus::Served);
}

TEST(System, SymmetricModeRunsWithoutMonitorOrWatchdog)
{
    SystemConfig cfg = testConfig();
    cfg.asymmetricMode = false;
    cfg.monitorEnabled = false;
    cfg.checkpointScheme = CheckpointScheme::None;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    EXPECT_EQ(sys.resurrectorFrames(), 0u);
    EXPECT_EQ(sys.watchdog(), nullptr);
    std::size_t slot = sys.deployService(shortDaemon("httpd", 10000));
    EXPECT_EQ(sys.slot(slot).monitor, nullptr);
    auto o = sys.processRequest(slot, request(1));
    EXPECT_EQ(o.status, RequestStatus::Served);
}

TEST(System, TwoServicesOnTwoResurrectees)
{
    SystemConfig cfg = testConfig();
    cfg.numResurrectees = 2;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t web = sys.deployService(shortDaemon("httpd", 10000));
    std::size_t dns = sys.deployService(shortDaemon("bind", 8000));
    EXPECT_NE(sys.slot(web).coreId, sys.slot(dns).coreId);

    EXPECT_EQ(sys.processRequest(web, request(1)).status,
              RequestStatus::Served);
    EXPECT_EQ(sys.processRequest(dns, request(1)).status,
              RequestStatus::Served);
    // An attack on the DNS slot leaves the web slot untouched.
    auto bad = sys.processRequest(dns,
                                  request(2, AttackKind::StackSmash));
    EXPECT_EQ(bad.status, RequestStatus::DetectedRecovered);
    EXPECT_EQ(sys.processRequest(web, request(2)).status,
              RequestStatus::Served);
}

TEST(SystemDeath, TooManyServicesIsFatal)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    sys.deployService(shortDaemon());
    EXPECT_DEATH(sys.deployService(shortDaemon()), "no free");
}

TEST(System, MonitoredRunIsSlowerButModest)
{
    SystemConfig base = testConfig();
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;
    SystemConfig mon_cfg = testConfig();
    mon_cfg.monitorEnabled = true;
    mon_cfg.checkpointScheme = CheckpointScheme::None;

    auto profile = shortDaemon("httpd", 30000);
    double t_base, t_mon;
    {
        IndraSystem sys(core::NodeConfig{base});
        sys.boot();
        auto slot = sys.deployService(profile);
        sys.runScript(net::ClientScript::benign(2), slot);
        auto out = sys.runScript(net::ClientScript::benign(5), slot);
        t_base = 0;
        for (auto &o : out)
            t_base += static_cast<double>(o.responseTime());
    }
    {
        IndraSystem sys(core::NodeConfig{mon_cfg});
        sys.boot();
        auto slot = sys.deployService(profile);
        sys.runScript(net::ClientScript::benign(2), slot);
        auto out = sys.runScript(net::ClientScript::benign(5), slot);
        t_mon = 0;
        for (auto &o : out)
            t_mon += static_cast<double>(o.responseTime());
    }
    EXPECT_GE(t_mon, t_base);
    EXPECT_LT(t_mon, t_base * 1.5);  // monitoring is not crippling
}

TEST(System, DocumentedCveScenariosAllRecovered)
{
    setLogVerbosity(0);
    for (const auto &scenario : net::documentedExploits()) {
        IndraSystem sys(core::NodeConfig{testConfig()});
        sys.boot();
        std::size_t slot =
            sys.deployService(shortDaemon(scenario.daemon, 15000));
        sys.processRequest(slot, request(1));

        auto bad = sys.processRequest(slot, request(2, scenario.kind));
        if (scenario.kind == AttackKind::Dormant) {
            EXPECT_EQ(bad.status, RequestStatus::Served)
                << scenario.id;
            continue;
        }
        if (scenario.expected != mon::Violation::None) {
            EXPECT_EQ(bad.status, RequestStatus::DetectedRecovered)
                << scenario.id;
            EXPECT_EQ(bad.violation, scenario.expected) << scenario.id;
        } else {
            EXPECT_EQ(bad.status, RequestStatus::CrashedRecovered)
                << scenario.id;
        }
        EXPECT_EQ(sys.processRequest(slot, request(3)).status,
                  RequestStatus::Served)
            << scenario.id;
    }
}

TEST(System, DeclaredDynCodeExecutesWithoutViolation)
{
    // Section 3.2.2: dynamically generated code must be explicitly
    // declared; execution inside the declared region then passes both
    // code-origin and control-transfer inspection.
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 10000));
    core::ServiceSlot &s = sys.slot(slot);
    os::Process &proc = sys.kernel().process(s.pid);

    // The service JITs a helper: map a DynCode page and declare it.
    Addr base = os::layout::dynCodeBase;
    proc.space->mapPage(base / sys.config().pageBytes,
                        os::Region::DynCode);
    cpu::Instruction declare;
    declare.op = cpu::Op::Syscall;
    declare.pc = 0x00400000 + 1024;
    declare.imm =
        static_cast<std::uint32_t>(cpu::SyscallNo::DeclareDynCode);
    declare.value = base;
    declare.effAddr = sys.config().pageBytes;  // region length
    s.core->execute(s.pid, declare);

    // Jump into the region and run: no violation may be raised.
    cpu::Instruction jmp;
    jmp.op = cpu::Op::JumpInd;
    jmp.pc = 0x00400000 + 1028;
    jmp.target = base;
    s.core->execute(s.pid, jmp);
    for (int i = 0; i < 8; ++i) {
        cpu::Instruction alu;
        alu.op = cpu::Op::Alu;
        alu.pc = base + i * 4;
        EXPECT_EQ(s.core->execute(s.pid, alu).fault,
                  mem::MemFault::None);
    }
    EXPECT_FALSE(s.monitor->pendingDetection().has_value());

    // An UNdeclared jump target elsewhere still trips inspection.
    cpu::Instruction bad;
    bad.op = cpu::Op::JumpInd;
    bad.pc = base + 64;
    bad.target = 0x10000100;  // data page
    s.core->execute(s.pid, bad);
    EXPECT_TRUE(s.monitor->pendingDetection().has_value());
}

TEST(System, BootGrantsBiosCopyToResurrectees)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    // The resurrector duplicated a BIOS image into frames the
    // resurrectee (core 1) may read (Section 3.1.2). At least one
    // boot-time frame is granted to core 1 and none to core 2.
    bool any_granted = false;
    for (Pfn pfn = 0; pfn < sys.resurrectorFrames() + 32; ++pfn) {
        if (sys.watchdog()->isGranted(pfn, 1))
            any_granted = true;
        EXPECT_FALSE(sys.watchdog()->isGranted(pfn, 33));
    }
    EXPECT_TRUE(any_granted);
}

TEST(System, LongjmpErrorPathRaisesNoFalsePositive)
{
    // INDRA "rarely has false positives" (Section 3.2.4): the
    // legitimate setjmp/longjmp error path must pass all inspectors.
    net::DaemonProfile p = shortDaemon("httpd", 20000);
    p.longjmpProb = 1.0;
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(p);
    auto outcomes = sys.runScript(net::ClientScript::benign(4), slot);
    for (const auto &o : outcomes)
        EXPECT_EQ(o.status, RequestStatus::Served);
    EXPECT_EQ(sys.slot(slot).monitor->violationsDetected(), 0u);
}

TEST(System, DetectionLatencyIsBoundedByCheckCost)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 15000));
    sys.processRequest(slot, request(1));
    sys.processRequest(slot, request(2, AttackKind::StackSmash));
    const auto &lat = sys.slot(slot).monitor->detectionLatency();
    ASSERT_GE(lat.count(), 1u);
    EXPECT_GT(lat.minValue(), 0.0);
    // Even queued behind a full FIFO of call/return checks, detection
    // lands within queue-depth * max-check-cost cycles.
    double bound = static_cast<double>(sys.config().traceFifoEntries) *
        (sys.config().codeOriginCheckCycles +
         sys.config().recordDequeueCycles) * 4.0;
    EXPECT_LT(lat.maxValue(), bound);
}

TEST(System, BackupSpaceGrowsOnDemandOnly)
{
    // Section 3.3.1, "Overhead of Backup Space": delta backup pages
    // are allocated lazily, so after many requests the backup
    // footprint stays a modest fraction of the resident working set.
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 15000));
    os::Process &proc = sys.kernel().process(sys.slot(slot).pid);
    std::uint64_t app_pages = proc.space->pageCount();

    sys.runScript(net::ClientScript::benign(6), slot);
    auto *delta = dynamic_cast<ckpt::DeltaBackup *>(
        sys.slot(slot).policy.get());
    ASSERT_NE(delta, nullptr);
    EXPECT_GT(delta->backupPagesAllocated(), 0u);
    EXPECT_LT(delta->backupPagesAllocated(), app_pages);
}

TEST(System, StressMixedAttacksAvailabilityStaysPerfect)
{
    setLogVerbosity(0);
    SystemConfig cfg = testConfig();
    cfg.macroCheckpointPeriod = 8;
    cfg.consecutiveFailureThreshold = 2;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("bind", 12000));

    auto script = net::ClientScript::randomMix(
        60, 0.3,
        {AttackKind::StackSmash, AttackKind::CodeInjection,
         AttackKind::FuncPtrHijack, AttackKind::FormatString,
         AttackKind::DosFlood, AttackKind::Dormant},
        777);
    auto outcomes = sys.runScript(script, slot);
    auto report = net::AvailabilityReport::build(outcomes);
    EXPECT_EQ(report.lost, 0u);
    EXPECT_DOUBLE_EQ(report.availability(), 1.0);
    // Time moves strictly forward across the whole run.
    for (std::size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_GE(outcomes[i].startTick, outcomes[i - 1].endTick);
}

TEST(System, AvailabilityReportAggregates)
{
    IndraSystem sys(core::NodeConfig{testConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 10000));
    auto script = net::ClientScript::periodicAttack(
        6, AttackKind::DosFlood, 3);
    auto outcomes = sys.runScript(script, slot);
    auto report = net::AvailabilityReport::build(outcomes);
    EXPECT_EQ(report.total, 6u);
    EXPECT_EQ(report.served, 4u);
    EXPECT_EQ(report.recovered, 2u);
    EXPECT_EQ(report.lost, 0u);
    EXPECT_DOUBLE_EQ(report.availability(), 1.0);
}
