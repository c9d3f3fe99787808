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
