/** @file Unit tests for the recovery manager's hybrid state machine
 * (Figures 6 and 8) at the component level. */

#include <gtest/gtest.h>

#include "core/recovery.hh"
#include "net/request.hh"
#include "os/kernel.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

class RecoveryTest : public ::testing::Test
{
  protected:
    RecoveryTest()
        : rig(),
          kernel(rig.phys, rig.cfg.pageBytes, nullptr, rig.stats)
    {
        rig.cfg.consecutiveFailureThreshold = 2;
        pid = kernel.createProcess("svc", 1);
        proc = &kernel.process(pid);
        proc->space->mapRegion(0x10000000, 4, os::Region::Data);

        core = std::make_unique<cpu::Core>(
            rig.cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
            rig.stats);
        policy = ckpt::makePolicy(rig.cfg, *proc->context,
                                  *proc->space, rig.phys,
                                  *rig.hierarchy, rig.stats);
        macro = std::make_unique<ckpt::MacroCheckpoint>(
            rig.cfg, rig.phys, *rig.hierarchy, rig.stats);
        manager = std::make_unique<core::RecoveryManager>(
            rig.cfg, *policy, *macro, kernel, rig.phys, pid, *core,
            nullptr, rig.stats);
    }

    void
    poke(Addr a, std::uint64_t v)
    {
        Pfn pfn = proc->space->translate(pid, a / 4096);
        rig.phys.write64(pfn, a % 4096, v);
    }

    std::uint64_t
    peek(Addr a)
    {
        Pfn pfn = proc->space->translate(pid, a / 4096);
        return rig.phys.read64(pfn, a % 4096);
    }

    void
    beginRequest()
    {
        proc->context->incrementGts();
        policy->onRequestBegin(core->curTick());
        manager->noteRequestBegin(core->curTick());
    }

    MemoryRig rig;
    os::Kernel kernel;
    Pid pid = 0;
    os::Process *proc = nullptr;
    std::unique_ptr<cpu::Core> core;
    std::unique_ptr<ckpt::CheckpointPolicy> policy;
    std::unique_ptr<ckpt::MacroCheckpoint> macro;
    std::unique_ptr<core::RecoveryManager> manager;
};

} // anonymous namespace

TEST_F(RecoveryTest, MicroRecoveryRestoresContextAndResources)
{
    proc->context->regs().pc = 0x1234;
    beginRequest();  // snapshot records pc = 0x1234
    proc->context->regs().pc = 0xdead;
    proc->resources->openFile("doomed");
    proc->resources->spawnChild();

    auto level = manager->recover(core->curTick());
    EXPECT_EQ(level, core::RecoveryLevel::Micro);
    EXPECT_EQ(proc->context->regs().pc, 0x1234u);
    EXPECT_EQ(proc->resources->openFileCount(), 0u);
    EXPECT_EQ(proc->resources->childCount(), 0u);
    EXPECT_EQ(manager->consecutiveFailures(), 1u);
}

TEST_F(RecoveryTest, SuccessResetsConsecutiveCount)
{
    beginRequest();
    manager->recover(core->curTick());
    manager->noteSuccess();
    EXPECT_EQ(manager->consecutiveFailures(), 0u);
}

TEST_F(RecoveryTest, ExceedingThresholdFallsBackToMacro)
{
    poke(0x10000000, 0x600d);
    manager->takeMacroCheckpoint(0);

    for (std::uint32_t i = 1; i <= rig.cfg.consecutiveFailureThreshold;
         ++i) {
        beginRequest();
        policy->onStore(0, pid, 0x10000000, 8);
        poke(0x10000000, 0xbad0 + i);
        EXPECT_EQ(manager->recover(core->curTick()),
                  core::RecoveryLevel::Micro);
    }
    // One more: threshold exceeded -> macro rollback to the captured
    // application checkpoint.
    beginRequest();
    policy->onStore(0, pid, 0x10000000, 8);
    poke(0x10000000, 0xffff);
    EXPECT_EQ(manager->recover(core->curTick()),
              core::RecoveryLevel::Macro);
    EXPECT_EQ(peek(0x10000000), 0x600du);
    EXPECT_EQ(manager->consecutiveFailures(), 0u);
    EXPECT_EQ(macro->restores(), 1u);
}

TEST_F(RecoveryTest, EscalationBoundaryIsExact)
{
    // threshold = 2 (set in the fixture). Failures 1..threshold stay
    // micro; failure threshold+1 is the first macro. threshold-1
    // failures followed by a success must never reach macro, because
    // noteSuccess() resets the consecutive count.
    manager->takeMacroCheckpoint(0);

    beginRequest();
    EXPECT_EQ(manager->recover(core->curTick()),
              core::RecoveryLevel::Micro);
    EXPECT_EQ(manager->consecutiveFailures(), 1u);

    // threshold-1 failures, then success: counter back to zero.
    manager->noteSuccess();
    EXPECT_EQ(manager->consecutiveFailures(), 0u);

    // Now run to exactly the threshold: still micro on each.
    for (std::uint32_t i = 1; i <= rig.cfg.consecutiveFailureThreshold;
         ++i) {
        beginRequest();
        EXPECT_EQ(manager->recover(core->curTick()),
                  core::RecoveryLevel::Micro)
            << "failure " << i << " escalated early";
    }
    EXPECT_EQ(macro->restores(), 0u);

    // One past the threshold: macro, and the counter resets.
    beginRequest();
    EXPECT_EQ(manager->recover(core->curTick()),
              core::RecoveryLevel::Macro);
    EXPECT_EQ(macro->restores(), 1u);
    EXPECT_EQ(manager->consecutiveFailures(), 0u);
    EXPECT_EQ(manager->consecutiveMacroRecoveries(), 1u);
}

TEST_F(RecoveryTest, NoMacroCheckpointMeansMicroForever)
{
    for (int i = 0; i < 6; ++i) {
        beginRequest();
        EXPECT_EQ(manager->recover(core->curTick()),
                  core::RecoveryLevel::Micro);
    }
}

TEST_F(RecoveryTest, RecoveryStallsTheCore)
{
    beginRequest();
    Tick before = core->curTick();
    manager->recover(before + 5000);
    EXPECT_GE(core->curTick(),
              before + 5000 + rig.cfg.recoveryInterruptCycles);
}

TEST_F(RecoveryTest, MacroCheckpointDrainsPendingRollback)
{
    poke(0x10000000, 0x1);
    beginRequest();
    policy->onStore(0, pid, 0x10000000, 8);
    poke(0x10000000, 0x2);
    manager->recover(core->curTick());  // micro: rollback pending

    // The macro capture must image the *restored* bytes, not the
    // corrupt ones still sitting in the active page.
    manager->takeMacroCheckpoint(core->curTick());
    poke(0x10000000, 0x3);
    os::Process &p = kernel.process(pid);
    macro->restore(0, *p.context, *p.space, *p.resources);
    EXPECT_EQ(peek(0x10000000), 0x1u);
}

TEST_F(RecoveryTest, RecoverWithoutSnapshotRejuvenates)
{
    // No request snapshot and no macro checkpoint: the only safe exit
    // is a full rejuvenation back to the load-time image.
    poke(0x10000000, 0xaaaa);
    proc->context->regs().pc = 0xbadbad;
    EXPECT_EQ(manager->recover(0), core::RecoveryLevel::Rejuvenation);
    EXPECT_EQ(manager->missingSnapshotRecoveries(), 1u);
    EXPECT_EQ(manager->rejuvenations(), 1u);
    // Load-time page contents and context restored.
    EXPECT_EQ(peek(0x10000000), 0u);
    EXPECT_NE(proc->context->regs().pc, 0xbadbadu);
    // Rejuvenation re-arms the macro checkpoint for future failures.
    EXPECT_TRUE(macro->hasCheckpoint());
}

// The fixture's load-time pages were never written: the load image
// keeps no bytes for them, and rejuvenating one written since load
// drops the written bytes again instead of copying zeros over them.
TEST_F(RecoveryTest, RejuvenationZeroesANeverWrittenLoadPageLazily)
{
    const Addr base = 0x10000000;
    const Pfn pfn = proc->space->translate(pid, base / 4096);
    ASSERT_TRUE(rig.phys.isZeroFrame(pfn));
    EXPECT_EQ(manager->bufferedPages(), 0u);

    poke(base + 64, 0xbad);
    ASSERT_FALSE(rig.phys.isZeroFrame(pfn));
    manager->proactiveRestore(core->curTick());
    EXPECT_EQ(peek(base + 64), 0u);
    EXPECT_TRUE(rig.phys.isZeroFrame(pfn));
    EXPECT_EQ(manager->bufferedPages(), 0u);
    EXPECT_EQ(macro->bufferedPages(), 0u);
}

// Rejuvenation writes back only the load-time pages whose frames no
// longer hold the load-time bytes, and leaves every mapped load-time
// page equal to them: a frame written since load, one never written,
// a page remapped to another frame, and a frame freed and handed out
// again at the same pfn.
TEST_F(RecoveryTest, RejuvenationRestoresEveryLoadTimePage)
{
    // Rebuild the manager over nonzero load-time bytes.
    const Addr base = 0x10000000;
    const Vpn vpn0 = base / 4096;
    for (Vpn i = 0; i < 4; ++i)
        poke(base + i * 4096 + 16, 0x1000 + i);
    manager.reset();
    manager = std::make_unique<core::RecoveryManager>(
        rig.cfg, *policy, *macro, kernel, rig.phys, pid, *core, nullptr,
        rig.stats);
    std::vector<std::vector<std::uint8_t>> load;
    std::vector<Pfn> load_pfns;
    for (Vpn i = 0; i < 4; ++i) {
        load_pfns.push_back(proc->space->translate(pid, vpn0 + i));
        load.push_back(rig.phys.snapshotFrame(load_pfns.back()));
    }

    poke(base + 64, 0xbad);  // page 0: written
    // Page 1 is left alone. Page 2: its frame goes to another page,
    // so it is mapped again on a fresh frame, which one write brings
    // to the version the load-time record holds: only the pfn tells
    // the two apart.
    const std::uint64_t held2 = rig.phys.frameVersion(load_pfns[2]);
    ASSERT_TRUE(proc->space->unmapPage(vpn0 + 2));
    proc->space->mapPage(vpn0 + 100, os::Region::Data);
    proc->space->mapPage(vpn0 + 2, os::Region::Data);
    const Pfn moved = proc->space->translate(pid, vpn0 + 2);
    ASSERT_NE(moved, load_pfns[2]);
    while (rig.phys.frameVersion(moved) < held2)
        poke(base + 2 * 4096 + 32, 0xbad2);
    ASSERT_EQ(rig.phys.frameVersion(moved), held2);
    // Page 3: freed and handed out again at the same pfn, as zeros.
    ASSERT_TRUE(proc->space->unmapPage(vpn0 + 3));
    proc->space->mapPage(vpn0 + 3, os::Region::Data);
    ASSERT_EQ(proc->space->translate(pid, vpn0 + 3), load_pfns[3]);
    const std::uint64_t untouched = rig.phys.frameVersion(load_pfns[1]);

    manager->proactiveRestore(core->curTick());
    std::vector<std::uint64_t> versions;
    for (Vpn i = 0; i < 4; ++i) {
        SCOPED_TRACE(i);
        Pfn pfn = proc->space->translate(pid, vpn0 + i);
        EXPECT_EQ(rig.phys.snapshotFrame(pfn), load[i]);
        versions.push_back(rig.phys.frameVersion(pfn));
    }
    EXPECT_EQ(versions[1], untouched);  // no copy of a held frame

    // With nothing written since, a second rejuvenation copies no page.
    manager->proactiveRestore(core->curTick());
    for (Vpn i = 0; i < 4; ++i) {
        SCOPED_TRACE(i);
        Pfn pfn = proc->space->translate(pid, vpn0 + i);
        EXPECT_EQ(rig.phys.snapshotFrame(pfn), load[i]);
        EXPECT_EQ(rig.phys.frameVersion(pfn), versions[i]);
    }
}
