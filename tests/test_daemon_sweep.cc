/** @file Parameterized system invariants across all six daemons of
 * the paper's evaluation: every daemon serves, every daemon survives
 * every attack class, and recovery is byte-exact everywhere. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/system.hh"
#include "sim/logging.hh"
#include "test_util.hh"

using namespace indra;
using core::IndraSystem;
using net::AttackKind;
using net::RequestStatus;

namespace
{

SystemConfig
sweepConfig()
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    return cfg;
}

net::DaemonProfile
shortProfile(const std::string &name)
{
    net::DaemonProfile p = net::daemonByName(name);
    p.instrPerRequest = 15000;
    return p;
}

class DaemonSweep : public ::testing::TestWithParam<const char *>
{
};

} // anonymous namespace

TEST_P(DaemonSweep, ServesBenignTraffic)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{sweepConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortProfile(GetParam()));
    auto outcomes = sys.runScript(net::ClientScript::benign(4), slot);
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.status, RequestStatus::Served);
        EXPECT_GT(o.instructions, 5000u);
    }
    EXPECT_EQ(sys.slot(slot).monitor->violationsDetected(), 0u);
}

TEST_P(DaemonSweep, SurvivesEveryAttackClass)
{
    setLogVerbosity(0);
    for (AttackKind kind :
         {AttackKind::StackSmash, AttackKind::CodeInjection,
          AttackKind::FuncPtrHijack, AttackKind::FormatString,
          AttackKind::DosFlood}) {
        IndraSystem sys(core::NodeConfig{sweepConfig()});
        sys.boot();
        std::size_t slot =
            sys.deployService(shortProfile(GetParam()));
        sys.runScript(net::ClientScript::benign(1), slot);

        net::ServiceRequest bad;
        bad.seq = 2;
        bad.attack = kind;
        auto out = sys.processRequest(slot, bad);
        EXPECT_NE(out.status, RequestStatus::Served)
            << GetParam() << " missed " << net::attackKindName(kind);
        EXPECT_NE(out.status, RequestStatus::Lost)
            << GetParam() << " lost on " << net::attackKindName(kind);

        net::ServiceRequest next;
        next.seq = 3;
        EXPECT_EQ(sys.processRequest(slot, next).status,
                  RequestStatus::Served)
            << GetParam() << " down after "
            << net::attackKindName(kind);
    }
}

TEST_P(DaemonSweep, RecoveryIsByteExact)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{sweepConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortProfile(GetParam()));
    sys.runScript(net::ClientScript::benign(2), slot);

    os::Process &proc = sys.kernel().process(sys.slot(slot).pid);
    std::map<Vpn, std::vector<std::uint8_t>> before;
    for (Vpn vpn : proc.space->mappedPages())
        before[vpn] = sys.physMem().snapshotFrame(
            proc.space->pageInfo(vpn).pfn);

    net::ServiceRequest bad;
    bad.seq = 3;
    bad.attack = AttackKind::StackSmash;
    sys.processRequest(slot, bad);
    sys.slot(slot).policy->drainRollback(0);

    for (const auto &[vpn, bytes] : before) {
        auto now = sys.physMem().snapshotFrame(
            proc.space->pageInfo(vpn).pfn);
        ASSERT_EQ(bytes, now)
            << GetParam() << " page " << std::hex << vpn;
    }
}

INSTANTIATE_TEST_SUITE_P(AllDaemons, DaemonSweep,
                         ::testing::Values("ftpd", "httpd", "bind",
                                           "sendmail", "imap", "nfs"));

// Context-switch semantics (paper footnote 5 + CAM hygiene).
TEST(ContextSwitch, FlushesCamAndSyncs)
{
    struct NullSink : cpu::TraceSink
    {
        Tick submit(const cpu::TraceRecord &, Tick tick) override
        {
            return tick;
        }
        Tick drainTick() const override { return 0; }
    } sink;

    testutil::MemoryRig rig;
    rig.space->mapRegion(0x00400000, 4, os::Region::Code);
    cpu::Core core(rig.cfg, 1, Privilege::Low, *rig.hierarchy,
                   rig.phys, rig.stats);
    core.setTraceSink(&sink);  // the CAM only works when monitored

    cpu::Instruction alu;
    alu.op = cpu::Op::Alu;
    alu.pc = 0x00400000;
    core.execute(1, alu);
    EXPECT_GT(core.filterCam().lookups(), 0u);

    Tick before = core.curTick();
    Cycles cost = core.onContextSwitch();
    EXPECT_GT(cost, 0u);
    EXPECT_GE(core.curTick(), before + cost);

    // The CAM forgot the page: the next fill on the same page is a
    // CAM miss again.
    std::uint64_t hits = core.filterCam().hits();
    core.execute(1, alu);  // refetch after the pipeline flush
    EXPECT_EQ(core.filterCam().hits(), hits);
}

TEST(ContextSwitch, GtsTravelsWithProcessContext)
{
    os::ProcessContext a(1, "svc-a"), b(2, "svc-b");
    a.setGts(41);
    b.setGts(7);
    // "Context switch": nothing shared — each process keeps its GTS.
    a.incrementGts();
    EXPECT_EQ(a.gts(), 42u);
    EXPECT_EQ(b.gts(), 7u);
    auto snap = a.snapshot();
    a.setGts(0);
    a.restore(snap);
    EXPECT_EQ(a.gts(), 42u);
}
