/** @file Tests for the three baseline checkpoint engines of Table 3
 * and the macro (application) checkpoint. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checkpoint/delta_backup.hh"
#include "checkpoint/macro_ckpt.hh"
#include "checkpoint/policy.hh"
#include "checkpoint/software_ckpt.hh"
#include "checkpoint/update_log.hh"
#include "checkpoint/virtual_ckpt.hh"
#include "os/resources.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

constexpr Addr pageBase = 0x10000000;

/** Fixture template shared by all engines. */
template <typename Engine>
class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : rig(),
          engine(rig.cfg, *rig.context, *rig.space, rig.phys,
                 *rig.hierarchy, rig.stats)
    {
        rig.space->mapRegion(pageBase, 8, os::Region::Data);
    }

    Cycles
    store(Addr vaddr, std::uint64_t value)
    {
        Cycles c = engine.onStore(0, 1, vaddr, 8);
        rig.poke64(vaddr, value);
        return c;
    }

    void
    newRequest()
    {
        rig.context->incrementGts();
        engine.onRequestBegin(0);
    }

    MemoryRig rig;
    Engine engine;
};

using VirtualTest = EngineTest<ckpt::VirtualCheckpoint>;
using LogTest = EngineTest<ckpt::MemoryUpdateLog>;
using SoftwareTest = EngineTest<ckpt::SoftwareCheckpoint>;

} // anonymous namespace

// --------------------------------------------------- VirtualCheckpoint

TEST_F(VirtualTest, FirstWriteCopiesWholePage)
{
    newRequest();
    store(pageBase, 1);
    EXPECT_EQ(engine.pagesSavedThisEpoch(), 1u);
    EXPECT_EQ(engine.linesBackedUp(), 64u);  // full page
}

TEST_F(VirtualTest, SecondWriteSamePageFree)
{
    newRequest();
    Cycles c1 = store(pageBase, 1);
    Cycles c2 = store(pageBase + 8, 2);
    EXPECT_GT(c1, 0u);
    EXPECT_EQ(c2, 0u);
}

TEST_F(VirtualTest, FailureRestoresViaRemap)
{
    rig.poke64(pageBase, 0x600d);
    rig.poke64(pageBase + 1000, 0x601d);
    newRequest();
    store(pageBase, 0xbad);
    Cycles recovery = engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase), 0x600du);
    EXPECT_EQ(rig.peek64(pageBase + 1000), 0x601du);
    // Recovery is a translation fix-up, far cheaper than a page copy.
    EXPECT_LE(recovery, rig.cfg.pageRemapCycles);
}

TEST_F(VirtualTest, BackupCostDwarfsDeltaCost)
{
    MemoryRig rig2;
    rig2.space->mapRegion(pageBase, 8, os::Region::Data);
    ckpt::DeltaBackup delta(rig2.cfg, *rig2.context, *rig2.space,
                            rig2.phys, *rig2.hierarchy, rig2.stats);
    rig2.context->incrementGts();
    delta.onRequestBegin(0);
    Cycles delta_cost = delta.onStore(0, 1, pageBase, 8);

    newRequest();
    Cycles page_cost = store(pageBase, 1);
    EXPECT_GT(page_cost, delta_cost * 10);
}

TEST_F(VirtualTest, RetryAfterFailureSavesAgain)
{
    rig.poke64(pageBase, 0xa);
    newRequest();
    store(pageBase, 0xb);
    engine.onFailure(0);
    // Same epoch retry: the consumed backup must be re-created.
    store(pageBase, 0xc);
    engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase), 0xau);
}

// ----------------------------------------------------- MemoryUpdateLog

TEST_F(LogTest, EveryStoreLogged)
{
    newRequest();
    store(pageBase, 1);
    store(pageBase, 2);
    store(pageBase + 8, 3);
    EXPECT_EQ(engine.logSize(), 3u);
}

TEST_F(LogTest, AppendIsCheap)
{
    newRequest();
    EXPECT_LE(store(pageBase, 1), rig.cfg.logAppendCycles);
}

TEST_F(LogTest, UndoRestoresInReverseOrder)
{
    rig.poke64(pageBase, 0x0);
    newRequest();
    store(pageBase, 0x1);
    store(pageBase, 0x2);
    store(pageBase, 0x3);
    engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase), 0x0u);
    EXPECT_EQ(engine.logSize(), 0u);
}

TEST_F(LogTest, RecoveryCostScalesWithLogLength)
{
    newRequest();
    for (int i = 0; i < 100; ++i)
        store(pageBase + (i % 50) * 8, i);
    Cycles c = engine.onFailure(0);
    // At least the per-entry undo cost, plus log-line read traffic.
    EXPECT_GE(c, 100u * rig.cfg.logUndoCycles);
    // And it really scales: a 10x longer log costs much more.
    newRequest();
    for (int i = 0; i < 1000; ++i)
        store(pageBase + (i % 50) * 8, i);
    Cycles c10 = engine.onFailure(0);
    EXPECT_GT(c10, c * 5);
}

TEST_F(LogTest, SuccessTruncatesLog)
{
    newRequest();
    store(pageBase, 1);
    newRequest();
    EXPECT_EQ(engine.logSize(), 0u);
    // A failure now rolls back nothing.
    engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase), 1u);
}

TEST_F(LogTest, InterleavedPagesRestoredExactly)
{
    rig.poke64(pageBase, 0xa0);
    rig.poke64(pageBase + 4096, 0xb0);
    newRequest();
    store(pageBase, 0xa1);
    store(pageBase + 4096, 0xb1);
    store(pageBase, 0xa2);
    engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase), 0xa0u);
    EXPECT_EQ(rig.peek64(pageBase + 4096), 0xb0u);
}

// -------------------------------------------------- SoftwareCheckpoint

TEST_F(SoftwareTest, FirstWriteTakesProtFaultAndCopies)
{
    newRequest();
    Cycles c = store(pageBase, 1);
    EXPECT_GT(c, rig.cfg.writeProtectFaultCycles);
    EXPECT_EQ(engine.pagesSavedThisEpoch(), 1u);
}

TEST_F(SoftwareTest, SoftwareCopyCostsMoreThanHardware)
{
    MemoryRig rig2;
    rig2.space->mapRegion(pageBase, 8, os::Region::Data);
    ckpt::VirtualCheckpoint hw(rig2.cfg, *rig2.context, *rig2.space,
                               rig2.phys, *rig2.hierarchy, rig2.stats);
    rig2.context->incrementGts();
    hw.onRequestBegin(0);
    Cycles hw_cost = hw.onStore(0, 1, pageBase, 8);

    newRequest();
    EXPECT_GT(store(pageBase, 1), hw_cost);
}

TEST_F(SoftwareTest, FailureRestoresPages)
{
    rig.poke64(pageBase + 512, 0x7777);
    newRequest();
    store(pageBase + 512, 0x8888);
    engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase + 512), 0x7777u);
}

// ------------------------------------------------------------ factory

TEST(PolicyFactory, BuildsEveryScheme)
{
    MemoryRig rig;
    for (auto scheme :
         {CheckpointScheme::None, CheckpointScheme::DeltaBackup,
          CheckpointScheme::VirtualCheckpoint,
          CheckpointScheme::MemoryUpdateLog,
          CheckpointScheme::SoftwareCheckpoint}) {
        SystemConfig cfg = rig.cfg;
        cfg.checkpointScheme = scheme;
        stats::StatGroup group(
            std::string("f_") + checkpointSchemeName(scheme));
        auto p = ckpt::makePolicy(cfg, *rig.context, *rig.space,
                                  rig.phys, *rig.hierarchy, group);
        ASSERT_NE(p, nullptr);
    }
}

TEST(NullPolicy, DoesNothing)
{
    MemoryRig rig;
    ckpt::NullPolicy p(rig.cfg, *rig.context, *rig.space, rig.phys,
                       *rig.hierarchy, rig.stats);
    EXPECT_EQ(p.onStore(0, 1, pageBase, 8), 0u);
    EXPECT_EQ(p.onFailure(0), 0u);
    EXPECT_EQ(p.linesBackedUp(), 0u);
}

// --------------------------------------------------- MacroCheckpoint

TEST(MacroCkpt, CaptureRestoreMemoryAndContext)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);

    rig.poke64(pageBase, 0x1234);
    rig.context->regs().pc = 0x42;
    rig.context->setGts(9);
    std::int32_t fd = res.openFile("kept");
    macro.capture(0, *rig.context, *rig.space, res);

    rig.poke64(pageBase, 0x9999);
    rig.context->regs().pc = 0xffff;
    res.openFile("doomed");
    res.growHeap(*rig.space, 2);

    macro.restore(0, *rig.context, *rig.space, res);
    EXPECT_EQ(rig.peek64(pageBase), 0x1234u);
    EXPECT_EQ(rig.context->regs().pc, 0x42u);
    EXPECT_EQ(rig.context->gts(), 9u);
    EXPECT_TRUE(res.isOpen(fd));
    EXPECT_EQ(res.openFileCount(), 1u);
    EXPECT_EQ(res.heapPages(), 0u);
}

TEST(MacroCkpt, HasCheckpointFlag)
{
    MemoryRig rig;
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    EXPECT_FALSE(macro.hasCheckpoint());
    macro.capture(0, *rig.context, *rig.space, res);
    EXPECT_TRUE(macro.hasCheckpoint());
}

TEST(MacroCkpt, RestoreWithoutCaptureIsRefused)
{
    MemoryRig rig;
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    ckpt::MacroRestoreResult res2 =
        macro.restore(0, *rig.context, *rig.space, res);
    EXPECT_FALSE(res2.ok);
    EXPECT_EQ(macro.restoreFailures(), 1u);
    EXPECT_EQ(macro.restores(), 0u);
}

TEST(MacroCkpt, CapturesCostMoreThanDeltaArming)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 16, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    Cycles cost = macro.capture(0, *rig.context, *rig.space, res);
    EXPECT_GT(cost, 1000u);  // full-image software checkpoint is slow
}

// Copy skip: restore writes back only the frames that changed since
// the image was taken, and still leaves every frame equal to it.
TEST(MacroCkpt, RestoreRewritesOnlyMutatedFrames)
{
    MemoryRig rig;
    const std::uint64_t pages = 8;
    rig.space->mapRegion(pageBase, pages, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    std::vector<Pfn> pfns;
    std::vector<std::vector<std::uint8_t>> captured;
    for (std::uint64_t p = 0; p < pages; ++p) {
        Addr page = pageBase + p * rig.cfg.pageBytes;
        rig.poke64(page + 8 * p, 0x1000 + p);
        pfns.push_back(rig.space->translate(1, page / rig.cfg.pageBytes));
        captured.push_back(rig.phys.snapshotFrame(pfns.back()));
    }
    macro.capture(0, *rig.context, *rig.space, res);

    const std::vector<std::uint64_t> mutated = {1, 4, 6};
    for (std::uint64_t p : mutated)
        rig.poke64(pageBase + p * rig.cfg.pageBytes + 64, 0xdead);
    std::vector<std::uint64_t> before;
    for (Pfn pfn : pfns)
        before.push_back(rig.phys.frameVersion(pfn));

    ASSERT_TRUE(macro.restore(0, *rig.context, *rig.space, res).ok);
    for (std::uint64_t p = 0; p < pages; ++p) {
        SCOPED_TRACE(p);
        EXPECT_EQ(rig.phys.snapshotFrame(pfns[p]), captured[p]);
        bool was_mutated =
            std::count(mutated.begin(), mutated.end(), p) != 0;
        EXPECT_EQ(rig.phys.frameVersion(pfns[p]) != before[p],
                  was_mutated);
        EXPECT_TRUE(macro.holdsFrame(p + pageBase / rig.cfg.pageBytes,
                                     pfns[p]));
    }

    // A second restore with nothing changed rewrites no frame.
    before.clear();
    for (Pfn pfn : pfns)
        before.push_back(rig.phys.frameVersion(pfn));
    ASSERT_TRUE(macro.restore(0, *rig.context, *rig.space, res).ok);
    for (std::uint64_t p = 0; p < pages; ++p)
        EXPECT_EQ(rig.phys.frameVersion(pfns[p]), before[p]);
}

// A frame freed and handed out again at the same pfn must not be
// mistaken for the copy the image took before the free.
TEST(MacroCkpt, FreedAndReusedFrameIsResnapshotted)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 2, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    const Vpn vpn = pageBase / rig.cfg.pageBytes;
    rig.poke64(pageBase, 0xaaaa);
    macro.capture(0, *rig.context, *rig.space, res);
    Pfn old_pfn = rig.space->translate(1, vpn);
    EXPECT_TRUE(macro.holdsFrame(vpn, old_pfn));

    ASSERT_TRUE(rig.space->unmapPage(vpn));
    Pfn new_pfn = rig.space->mapPage(vpn, os::Region::Data);
    ASSERT_EQ(new_pfn, old_pfn);  // the allocator reuses the frame
    EXPECT_FALSE(macro.holdsFrame(vpn, new_pfn));
    macro.capture(0, *rig.context, *rig.space, res);
    EXPECT_TRUE(macro.holdsFrame(vpn, new_pfn));

    rig.poke64(pageBase, 0xbbbb);
    ASSERT_TRUE(macro.restore(0, *rig.context, *rig.space, res).ok);
    EXPECT_EQ(rig.peek64(pageBase), 0u);  // the reused frame's zeros
}

// discard() keeps the page buffers but no copy record: the next
// capture copies every page again, and restore needs that capture.
TEST(MacroCkpt, DiscardDropsCopyRecords)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    const Vpn vpn = pageBase / rig.cfg.pageBytes;
    const Pfn pfn = rig.space->translate(1, vpn);
    rig.poke64(pageBase, 0x1111);
    macro.capture(0, *rig.context, *rig.space, res);
    macro.discard();
    EXPECT_FALSE(macro.holdsFrame(vpn, pfn));
    EXPECT_FALSE(macro.restore(0, *rig.context, *rig.space, res).ok);

    rig.poke64(pageBase, 0x2222);
    macro.capture(0, *rig.context, *rig.space, res);
    EXPECT_TRUE(macro.holdsFrame(vpn, pfn));
    rig.poke64(pageBase, 0x3333);
    ASSERT_TRUE(macro.restore(0, *rig.context, *rig.space, res).ok);
    EXPECT_EQ(rig.peek64(pageBase), 0x2222u);
}
