/** @file Tests for the deterministic fault-injection subsystem: plan
 * parsing, per-kind RNG stream independence, checksum-based corruption
 * detection in every backup engine, the recovery escalation ladder
 * under injected component failures, and campaign determinism across
 * parallel job counts. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "checkpoint/delta_backup.hh"
#include "checkpoint/macro_ckpt.hh"
#include "checkpoint/policy.hh"
#include "checkpoint/update_log.hh"
#include "core/system.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "harness/parallel_sweep.hh"
#include "net/client.hh"
#include "net/workload.hh"
#include "os/resources.hh"
#include "test_util.hh"

using namespace indra;
using faults::FaultInjector;
using faults::FaultKind;
using faults::FaultPlan;
using net::AttackKind;
using net::RequestStatus;
using testutil::MemoryRig;

namespace
{

constexpr Addr pageBase = 0x10000000;

SystemConfig
faultTestConfig()
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    cfg.consecutiveFailureThreshold = 2;
    cfg.macroCheckpointPeriod = 25;
    return cfg;
}

net::DaemonProfile
shortDaemon()
{
    net::DaemonProfile p = net::daemonByName("httpd");
    p.instrPerRequest = 25000;
    return p;
}

/** Count outcomes with the given status. */
std::uint64_t
countStatus(const std::vector<net::RequestOutcome> &outcomes,
            RequestStatus s)
{
    std::uint64_t n = 0;
    for (const auto &o : outcomes)
        n += (o.status == s);
    return n;
}

} // anonymous namespace

// --------------------------------------------------------- FaultPlan

TEST(FaultPlan, DefaultIsEmpty)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    for (FaultKind k : faults::allFaultKinds()) {
        EXPECT_EQ(plan.rate(k), 0.0);
        EXPECT_EQ(plan.magnitude(k), 0u);
    }
}

TEST(FaultPlan, AddArmsAndClamps)
{
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 0.25)
        .add(FaultKind::MonitorDelay, 1.5, 50000);
    EXPECT_FALSE(plan.empty());
    EXPECT_DOUBLE_EQ(plan.rate(FaultKind::DeltaFlip), 0.25);
    EXPECT_DOUBLE_EQ(plan.rate(FaultKind::MonitorDelay), 1.0);
    EXPECT_EQ(plan.magnitude(FaultKind::MonitorDelay), 50000u);
    EXPECT_EQ(plan.rate(FaultKind::LogFlip), 0.0);
}

TEST(FaultPlan, ParseRoundTrips)
{
    FaultPlan plan = FaultPlan::parse(
        "delta-flip:0.25,monitor-delay:0.5:50000", 42);
    EXPECT_EQ(plan.seed(), 42u);
    EXPECT_DOUBLE_EQ(plan.rate(FaultKind::DeltaFlip), 0.25);
    EXPECT_DOUBLE_EQ(plan.rate(FaultKind::MonitorDelay), 0.5);
    EXPECT_EQ(plan.magnitude(FaultKind::MonitorDelay), 50000u);

    FaultPlan again = FaultPlan::parse(plan.describe(), 42);
    EXPECT_EQ(again.describe(), plan.describe());
}

TEST(FaultPlanDeath, ParseRejectsUnknownKind)
{
    EXPECT_DEATH(FaultPlan::parse("cosmic-ray:0.5"), "cosmic-ray");
}

TEST(FaultPlanDeath, ParseRejectsMalformedClauses)
{
    // Every malformed clause dies naming the offending piece —
    // never silently runs a partial plan.
    EXPECT_DEATH(FaultPlan::parse("delta-flip"), "");
    EXPECT_DEATH(FaultPlan::parse("delta-flip:"), "");
    EXPECT_DEATH(FaultPlan::parse("delta-flip:lots"), "bad rate");
    EXPECT_DEATH(FaultPlan::parse("delta-flip:0.5x"), "bad rate");
    EXPECT_DEATH(FaultPlan::parse("monitor-delay:0.5:1e4k"),
                 "bad magnitude");
    EXPECT_DEATH(FaultPlan::parse("delta-flip:0.5:1:2"), "");
}

TEST(FaultPlan, KindNamesRoundTrip)
{
    for (FaultKind k : faults::allFaultKinds())
        EXPECT_EQ(faults::faultKindFromName(faults::faultKindName(k)), k);
}

// -------------------------------------------------------- checksum32

TEST(Checksum, FnvBasisAndSensitivity)
{
    // FNV-1a over zero bytes is the offset basis.
    EXPECT_EQ(faults::checksum32(nullptr, 0), 0x811c9dc5u);

    std::uint8_t buf[64] = {};
    std::uint32_t clean = faults::checksum32(buf, sizeof(buf));
    buf[17] ^= 0x01;  // a single flipped bit must change the digest
    EXPECT_NE(faults::checksum32(buf, sizeof(buf)), clean);
}

// ----------------------------------------------------- FaultInjector

TEST(FaultInjector, SameSeedSameOutcomes)
{
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 0.5).setSeed(99);
    stats::StatGroup g1("a"), g2("b");
    FaultInjector i1(plan, g1), i2(plan, g2);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(i1.fire(FaultKind::DeltaFlip),
                  i2.fire(FaultKind::DeltaFlip));
    EXPECT_EQ(i1.injected(FaultKind::DeltaFlip),
              i2.injected(FaultKind::DeltaFlip));
    EXPECT_GT(i1.totalInjected(), 0u);
}

TEST(FaultInjector, UnarmedKindNeverFires)
{
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 1.0);
    stats::StatGroup g("t");
    FaultInjector inj(plan, g);
    EXPECT_TRUE(inj.armed(FaultKind::DeltaFlip));
    EXPECT_FALSE(inj.armed(FaultKind::LogFlip));
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(inj.fire(FaultKind::LogFlip));
    EXPECT_EQ(inj.injected(FaultKind::LogFlip), 0u);
}

TEST(FaultInjector, StreamsAreIndependent)
{
    // Draws on one kind must not perturb another kind's sequence:
    // kind B alone and kind B interleaved with kind A give the same
    // B-sequence.
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 0.5)
        .add(FaultKind::LogFlip, 0.5)
        .setSeed(7);
    stats::StatGroup g1("a"), g2("b");
    FaultInjector alone(plan, g1), mixed(plan, g2);

    std::vector<bool> seq;
    for (int i = 0; i < 100; ++i)
        seq.push_back(alone.fire(FaultKind::LogFlip));
    for (int i = 0; i < 100; ++i) {
        mixed.fire(FaultKind::DeltaFlip);  // extra draws on kind A
        EXPECT_EQ(mixed.fire(FaultKind::LogFlip), seq[i]) << i;
    }
}

TEST(FaultInjector, RateOneFiresAlways)
{
    FaultPlan plan;
    plan.add(FaultKind::ReleaseFail, 1.0);
    stats::StatGroup g("t");
    FaultInjector inj(plan, g);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(inj.fire(FaultKind::ReleaseFail));
    EXPECT_EQ(inj.injected(FaultKind::ReleaseFail), 20u);
}

// -------------------------------- corruption detection: delta backup

TEST(FaultDelta, FlipDetectedAtVerifyAndNeverApplied)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    ckpt::DeltaBackup engine(rig.cfg, *rig.context, *rig.space,
                             rig.phys, *rig.hierarchy, rig.stats);
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 1.0).setSeed(3);
    FaultInjector inj(plan, rig.stats);
    engine.setFaultInjector(&inj);

    rig.poke64(pageBase, 0x600d);
    rig.context->incrementGts();
    engine.onRequestBegin(0);
    engine.onStore(0, 1, pageBase, 8);  // backup line corrupted here
    rig.poke64(pageBase, 0xbad);

    // 100% detection: the sealed checksum catches the flipped bit.
    EXPECT_GT(inj.injected(FaultKind::DeltaFlip), 0u);
    EXPECT_FALSE(engine.verifyIntegrity(0));
    EXPECT_GT(engine.corruptionDetected(), 0u);

    // A rollback must never apply the corrupt backup line: the page
    // keeps its current bytes instead of receiving forged ones.
    engine.onFailure(0);
    engine.drainRollback(0);
    EXPECT_EQ(rig.peek64(pageBase), 0xbadu);
}

TEST(FaultDelta, CleanBackupPassesVerification)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    ckpt::DeltaBackup engine(rig.cfg, *rig.context, *rig.space,
                             rig.phys, *rig.hierarchy, rig.stats);
    rig.poke64(pageBase, 0x600d);
    rig.context->incrementGts();
    engine.onRequestBegin(0);
    engine.onStore(0, 1, pageBase, 8);
    rig.poke64(pageBase, 0xbad);
    EXPECT_TRUE(engine.verifyIntegrity(0));
    engine.onFailure(0);
    engine.drainRollback(0);
    EXPECT_EQ(rig.peek64(pageBase), 0x600du);
    EXPECT_EQ(engine.corruptionDetected(), 0u);
}

// --------------------------------- corruption detection: update log

TEST(FaultLog, FlipDetectedAtUndoAndNeverApplied)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    ckpt::MemoryUpdateLog engine(rig.cfg, *rig.context, *rig.space,
                                 rig.phys, *rig.hierarchy, rig.stats);
    FaultPlan plan;
    plan.add(FaultKind::LogFlip, 1.0).setSeed(5);
    FaultInjector inj(plan, rig.stats);
    engine.setFaultInjector(&inj);

    rig.poke64(pageBase, 0x600d);
    rig.context->incrementGts();
    engine.onRequestBegin(0);
    engine.onStore(0, 1, pageBase, 8);  // undo entry forged here
    rig.poke64(pageBase, 0xbad);

    EXPECT_FALSE(engine.verifyIntegrity(0));
    engine.onFailure(0);
    // The forged old value was refused, not replayed.
    EXPECT_EQ(rig.peek64(pageBase), 0xbadu);
    EXPECT_GT(engine.corruptionDetected(), 0u);
}

// ----------------------------- corruption detection: macro checkpoint

TEST(FaultMacro, CorruptImageRefusesRestore)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    FaultPlan plan;
    plan.add(FaultKind::MacroCorrupt, 1.0).setSeed(11);
    FaultInjector inj(plan, rig.stats);
    macro.setFaultInjector(&inj);

    rig.poke64(pageBase, 0x600d);
    macro.capture(0, *rig.context, *rig.space, res);
    rig.poke64(pageBase, 0xbad);

    auto result = macro.restore(0, *rig.context, *rig.space, res);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(macro.restoreFailures(), 1u);
    EXPECT_GT(macro.corruptionDetected(), 0u);
    // Refusal leaves every byte of process state alone.
    EXPECT_EQ(rig.peek64(pageBase), 0xbadu);
}

TEST(FaultMacro, TruncatedImageRefusesRestore)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    FaultPlan plan;
    plan.add(FaultKind::MacroTruncate, 1.0).setSeed(13);
    FaultInjector inj(plan, rig.stats);
    macro.setFaultInjector(&inj);

    macro.capture(0, *rig.context, *rig.space, res);
    auto result = macro.restore(0, *rig.context, *rig.space, res);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(macro.restoreFailures(), 1u);
}

// A page corrupted in the image at capture N is no longer a copy of
// its frame: capture N+1 must copy it again, or a later restore would
// write the flipped bit back over a verified image.
TEST(FaultMacro, CorruptedPageIsResnapshottedNextCapture)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    FaultPlan plan;
    plan.add(FaultKind::MacroCorrupt, 1.0).setSeed(11);
    FaultInjector inj(plan, rig.stats);
    macro.setFaultInjector(&inj);

    std::vector<Vpn> vpns = rig.space->mappedPages();
    std::vector<std::vector<std::uint8_t>> original;
    for (Vpn vpn : vpns) {
        rig.poke64(vpn * rig.cfg.pageBytes, 0x5000 + vpn);
        original.push_back(
            rig.phys.snapshotFrame(rig.space->translate(1, vpn)));
    }
    macro.capture(0, *rig.context, *rig.space, res);
    std::uint64_t unheld = 0;
    for (Vpn vpn : vpns)
        unheld += !macro.holdsFrame(vpn, rig.space->translate(1, vpn));
    EXPECT_EQ(unheld, 1u);  // exactly the corrupted page

    macro.setFaultInjector(nullptr);
    macro.capture(0, *rig.context, *rig.space, res);
    for (Vpn vpn : vpns) {
        EXPECT_TRUE(macro.holdsFrame(vpn, rig.space->translate(1, vpn)));
        rig.poke64(vpn * rig.cfg.pageBytes, 0xbad);
    }
    ASSERT_TRUE(macro.restore(0, *rig.context, *rig.space, res).ok);
    for (std::size_t i = 0; i < vpns.size(); ++i) {
        EXPECT_EQ(rig.phys.snapshotFrame(rig.space->translate(1, vpns[i])),
                  original[i]);
    }
}

// The corrupt and truncate victims are drawn over the image's sorted
// vpns, one pick per fire: a twin injector on the same plan predicts
// every victim.
TEST(FaultMacro, VictimPicksDrawOverSortedImageVpns)
{
    for (FaultKind kind : {FaultKind::MacroCorrupt,
                           FaultKind::MacroTruncate}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(seed);
            MemoryRig rig;
            rig.space->mapRegion(pageBase, 9, os::Region::Data);
            os::SystemResources res(1);
            ckpt::MacroCheckpoint macro(rig.cfg, rig.phys,
                                        *rig.hierarchy, rig.stats);
            FaultPlan plan;
            plan.add(kind, 1.0).setSeed(seed);
            FaultInjector inj(plan, rig.stats);
            macro.setFaultInjector(&inj);
            stats::StatGroup twin_stats("twin");
            FaultInjector twin(plan, twin_stats);

            std::vector<Vpn> vpns = rig.space->mappedPages();
            std::sort(vpns.begin(), vpns.end());
            for (int capture = 0; capture < 3; ++capture) {
                macro.capture(0, *rig.context, *rig.space, res);
                ASSERT_TRUE(twin.fire(kind));
                Vpn victim = vpns[twin.pick(
                    kind, static_cast<std::uint32_t>(vpns.size()))];
                if (kind == FaultKind::MacroCorrupt)
                    twin.pick(kind, rig.cfg.pageBytes * 8);  // the bit
                for (Vpn vpn : vpns) {
                    EXPECT_EQ(macro.holdsFrame(
                                  vpn, rig.space->translate(1, vpn)),
                              vpn != victim)
                        << "capture " << capture << " vpn " << vpn;
                }
            }
        }
    }
}

// -------------------------------------- resource release during revival

TEST(FaultRelease, FailedReleasesLeakButStayRetryable)
{
    MemoryRig rig;
    os::SystemResources res(1);
    FaultPlan plan;
    plan.add(FaultKind::ReleaseFail, 1.0).setSeed(17);
    FaultInjector inj(plan, rig.stats);
    res.setFaultInjector(&inj);

    os::ResourceSnapshot snap = res.snapshot();
    res.openFile("doomed1");
    res.openFile("doomed2");
    res.spawnChild();

    os::RestoreActions acts = res.restoreTo(snap, *rig.space);
    EXPECT_FALSE(acts.clean());
    EXPECT_GT(acts.releaseFailures, 0u);
    // Every release failed: the resources leak past the restore.
    EXPECT_EQ(res.openFileCount(), 2u);
    EXPECT_EQ(res.childCount(), 1u);

    // A later retry without faults drains the leaked resources.
    res.setFaultInjector(nullptr);
    os::RestoreActions retry = res.restoreTo(snap, *rig.space);
    EXPECT_TRUE(retry.clean());
    EXPECT_EQ(res.openFileCount(), 0u);
    EXPECT_EQ(res.childCount(), 0u);
}

// ------------------------------------------- system escalation ladder

TEST(FaultSystem, EmptyPlanCreatesNoInjector)
{
    core::IndraSystem sys(core::NodeConfig{faultTestConfig()});
    EXPECT_EQ(sys.faultInjector(), nullptr);
}

TEST(FaultSystem, DeltaFlipEscalatesMicroToMacro)
{
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 1.0).setSeed(23);
    core::IndraSystem sys(core::NodeConfig{faultTestConfig(), plan});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());

    auto outcomes = sys.runScript(
        net::ClientScript::periodicAttack(6, AttackKind::StackSmash, 3),
        slot);

    // Micro backup state is corrupt on every failure, so the first
    // recovery must escalate straight to the macro checkpoint: no
    // silent wrong-state micro recovery.
    EXPECT_EQ(countStatus(outcomes, RequestStatus::DetectedRecovered),
              0u);
    EXPECT_GT(countStatus(outcomes, RequestStatus::MacroRecovered), 0u);
    EXPECT_GT(sys.slot(slot).recovery->integrityEscalations(), 0u);
    EXPECT_GT(sys.slot(slot).policy->corruptionDetected(), 0u);
}

TEST(FaultSystem, CorruptMacroEscalatesToRejuvenation)
{
    FaultPlan plan;
    plan.add(FaultKind::DeltaFlip, 1.0)
        .add(FaultKind::MacroCorrupt, 1.0)
        .setSeed(29);
    core::IndraSystem sys(core::NodeConfig{faultTestConfig(), plan});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());

    auto outcomes = sys.runScript(
        net::ClientScript::periodicAttack(6, AttackKind::StackSmash, 3),
        slot);

    // Micro is untrusted (delta flips) and the macro image is corrupt:
    // the ladder must run all the way down to rejuvenation.
    EXPECT_GT(countStatus(outcomes, RequestStatus::Rejuvenated), 0u);
    EXPECT_GT(sys.slot(slot).recovery->rejuvenations(), 0u);
    EXPECT_GT(sys.slot(slot).recovery->macroRestoreFailures(), 0u);
    EXPECT_GT(sys.slot(slot).macro->restoreFailures(), 0u);

    // The reborn service still serves benign traffic.
    auto after = sys.runScript(net::ClientScript::benign(3), slot);
    EXPECT_EQ(countStatus(after, RequestStatus::Served), 3u);
}

TEST(FaultSystem, MonitorFalseNegativeMasksDetection)
{
    auto script =
        net::ClientScript::periodicAttack(6, AttackKind::StackSmash, 2);

    core::IndraSystem clean(core::NodeConfig{faultTestConfig()});
    clean.boot();
    std::size_t cs = clean.deployService(shortDaemon());
    auto base = clean.runScript(script, cs);
    ASSERT_GT(countStatus(base, RequestStatus::DetectedRecovered), 0u);

    FaultPlan plan;
    plan.add(FaultKind::MonitorFalseNegative, 1.0).setSeed(31);
    core::IndraSystem sys(core::NodeConfig{faultTestConfig(), plan});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    auto outcomes = sys.runScript(script, slot);

    // Every verdict is suppressed: nothing is *detected*, though
    // attacks may still surface as crashes and recover that way.
    EXPECT_EQ(countStatus(outcomes, RequestStatus::DetectedRecovered),
              0u);
    EXPECT_GT(sys.faultInjector()->injected(
                  FaultKind::MonitorFalseNegative),
              0u);
}

TEST(FaultSystem, TraceDropStarvesTheMonitor)
{
    FaultPlan plan;
    plan.add(FaultKind::TraceDrop, 1.0).setSeed(37);
    core::IndraSystem sys(core::NodeConfig{faultTestConfig(), plan});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());

    auto outcomes = sys.runScript(
        net::ClientScript::periodicAttack(4, AttackKind::StackSmash, 2),
        slot);

    // Every record was lost in transit: the monitor inspected nothing
    // and could not have raised a detection.
    EXPECT_GT(sys.slot(slot).monitor->fifo().drops(), 0u);
    EXPECT_EQ(sys.slot(slot).monitor->recordsProcessed(), 0u);
    EXPECT_EQ(countStatus(outcomes, RequestStatus::DetectedRecovered),
              0u);
}

TEST(FaultSystem, MonitorDelayStretchesDetection)
{
    auto script = net::ClientScript::periodicAttack(
        3, AttackKind::StackSmash, 3);

    core::IndraSystem fast(core::NodeConfig{faultTestConfig()});
    fast.boot();
    std::size_t fs = fast.deployService(shortDaemon());
    auto base = fast.runScript(script, fs);

    FaultPlan plan;
    plan.add(FaultKind::MonitorDelay, 1.0, 500000).setSeed(41);
    core::IndraSystem slow(core::NodeConfig{faultTestConfig(), plan});
    slow.boot();
    std::size_t ss = slow.deployService(shortDaemon());
    auto delayed = slow.runScript(script, ss);

    // Detection still happens, but the verdict lands half a million
    // cycles later, stretching the attacked request's response time.
    ASSERT_EQ(base.size(), delayed.size());
    std::uint64_t detected_base =
        countStatus(base, RequestStatus::DetectedRecovered);
    std::uint64_t detected_delayed =
        countStatus(delayed, RequestStatus::DetectedRecovered);
    EXPECT_EQ(detected_base, detected_delayed);
    ASSERT_GT(detected_delayed, 0u);
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (base[i].status == RequestStatus::DetectedRecovered) {
            EXPECT_GT(delayed[i].responseTime(),
                      base[i].responseTime() + 400000)
                << "request " << i;
        }
    }
}

// ---------------------------------------------- campaign determinism

namespace
{

/** One campaign cell: a tiny faulted run summarized as numbers. */
struct CellResult
{
    std::uint64_t served = 0;
    std::uint64_t macro = 0;
    std::uint64_t rejuv = 0;
    std::uint64_t injected = 0;

    bool
    operator==(const CellResult &o) const
    {
        return served == o.served && macro == o.macro &&
               rejuv == o.rejuv && injected == o.injected;
    }
};

CellResult
runCell(std::size_t idx)
{
    static const FaultKind kinds[] = {FaultKind::DeltaFlip,
                                      FaultKind::MacroCorrupt,
                                      FaultKind::TraceDrop};
    FaultPlan plan;
    plan.add(kinds[idx % 3], 0.5).setSeed(100 + idx);
    core::IndraSystem sys(core::NodeConfig{faultTestConfig(), plan});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon());
    auto outcomes = sys.runScript(
        net::ClientScript::randomMix(
            12, 0.4, {AttackKind::StackSmash, AttackKind::CodeInjection},
            idx + 1),
        slot);
    CellResult r;
    r.served = countStatus(outcomes, RequestStatus::Served);
    r.macro = countStatus(outcomes, RequestStatus::MacroRecovered);
    r.rejuv = countStatus(outcomes, RequestStatus::Rejuvenated);
    r.injected = sys.faultInjector()->totalInjected();
    return r;
}

} // anonymous namespace

TEST(FaultCampaign, BitIdenticalAcrossJobCounts)
{
    constexpr std::size_t cells = 6;
    harness::ParallelSweep serial(1);
    harness::ParallelSweep parallel(3);
    auto a = serial.run(cells, runCell);
    auto b = parallel.run(cells, runCell);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < cells; ++i)
        EXPECT_TRUE(a[i] == b[i]) << "cell " << i;
}
