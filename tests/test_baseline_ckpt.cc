/** @file Tests for the baseline checkpoint engines of Table 3 (the
 * page-copy engine in its virtual and software forms, and the memory
 * update log) and the macro (application) checkpoint. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/delta_backup.hh"
#include "checkpoint/macro_ckpt.hh"
#include "checkpoint/policy.hh"
#include "checkpoint/update_log.hh"
#include "checkpoint/virtual_ckpt.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "obs/stat_sinks.hh"
#include "os/resources.hh"
#include "sim/random.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

constexpr Addr pageBase = 0x10000000;

/** The small test config selecting @p scheme. */
SystemConfig
schemeConfig(CheckpointScheme scheme)
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.checkpointScheme = scheme;
    return cfg;
}

/** Fixture template shared by all engines. */
template <typename Engine, CheckpointScheme Scheme>
class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : rig(schemeConfig(Scheme)),
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

using VirtualTest = EngineTest<ckpt::VirtualCheckpoint,
                               CheckpointScheme::VirtualCheckpoint>;
using LogTest = EngineTest<ckpt::MemoryUpdateLog,
                           CheckpointScheme::MemoryUpdateLog>;
using SoftwareTest = EngineTest<ckpt::VirtualCheckpoint,
                                CheckpointScheme::SoftwareCheckpoint>;

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

// ------------------------------------------ SoftwareCheckpoint scheme

TEST_F(SoftwareTest, FirstWriteTakesProtFaultAndCopies)
{
    newRequest();
    Cycles c = store(pageBase, 1);
    EXPECT_GT(c, rig.cfg.writeProtectFaultCycles);
    EXPECT_EQ(engine.pagesSavedThisEpoch(), 1u);
}

TEST_F(SoftwareTest, FailureRestoresPages)
{
    rig.poke64(pageBase + 512, 0x7777);
    newRequest();
    store(pageBase + 512, 0x8888);
    engine.onFailure(0);
    EXPECT_EQ(rig.peek64(pageBase + 512), 0x7777u);
}

// ------------------------------------- software vs virtual page copies

namespace
{

constexpr std::uint32_t copyPages = 6;

/** Pages @p engine holds a backup copy of for the current epoch. */
std::uint64_t
pagesSaved(const ckpt::CheckpointPolicy &engine)
{
    return dynamic_cast<const ckpt::VirtualCheckpoint &>(engine)
        .pagesSavedThisEpoch();
}

/** The engine makePolicy builds for @p scheme, on a rig of its own. */
struct PageCopyRig
{
    explicit PageCopyRig(CheckpointScheme scheme)
        : rig(schemeConfig(scheme))
    {
        rig.space->mapRegion(pageBase, copyPages, os::Region::Data);
        engine = ckpt::makePolicy(rig.cfg, *rig.context, *rig.space,
                                  rig.phys, *rig.hierarchy, rig.stats);
    }

    std::vector<std::vector<std::uint8_t>>
    image()
    {
        std::vector<std::vector<std::uint8_t>> pages;
        for (std::uint32_t p = 0; p < copyPages; ++p) {
            pages.push_back(rig.phys.snapshotFrame(rig.space->translate(
                1, pageBase / rig.cfg.pageBytes + p)));
        }
        return pages;
    }

    MemoryRig rig;
    std::unique_ptr<ckpt::CheckpointPolicy> engine;
};

} // anonymous namespace

// Software checkpointing is the virtual engine's copy-whole-page-on-
// first-write algorithm behind a write-protect fault: the same bytes
// and saved pages, and each first-touch store costs exactly
// writeProtectFaultCycles more.
TEST(PageCopyEngines, SoftwareIsVirtualPlusProtFault)
{
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE(seed);
        PageCopyRig virt(CheckpointScheme::VirtualCheckpoint);
        PageCopyRig soft(CheckpointScheme::SoftwareCheckpoint);
        const Cycles fault = soft.rig.cfg.writeProtectFaultCycles;
        Pcg32 rng(seed, 31);
        // Pages copied since the last request begin, failure or
        // invalidate, and the image a failure must restore.
        std::set<std::uint32_t> copied;
        auto boundary = virt.image();
        std::uint64_t first_touches = 0;
        Tick tick = 0;
        for (int step = 0; step < 600; ++step) {
            double op = rng.uniformReal();
            if (op < 0.08) {
                for (PageCopyRig *r : {&virt, &soft}) {
                    r->rig.context->incrementGts();
                    r->engine->onRequestBegin(tick);
                }
                copied.clear();
                boundary = virt.image();
            } else if (op < 0.13) {
                virt.engine->onFailure(tick);
                soft.engine->onFailure(tick);
                copied.clear();
                ASSERT_EQ(virt.image(), boundary);
                ASSERT_EQ(soft.image(), boundary);
            } else if (op < 0.16) {
                virt.engine->invalidate();
                soft.engine->invalidate();
                copied.clear();
                boundary = virt.image();
            } else {
                std::uint32_t page = rng.nextBounded(copyPages);
                Addr addr = pageBase + page * 4096 +
                    rng.nextBounded(4096 / 8) * 8;
                Cycles cv = virt.engine->onStore(tick, 1, addr, 8);
                Cycles cs = soft.engine->onStore(tick, 1, addr, 8);
                bool first = copied.insert(page).second;
                first_touches += first ? 1 : 0;
                ASSERT_EQ(cv == 0, !first);
                ASSERT_EQ(cs, first ? cv + fault : 0);
                std::uint64_t value = rng.next64();
                virt.rig.poke64(addr, value);
                soft.rig.poke64(addr, value);
                tick += cs + rng.nextBounded(2000);
            }
            ASSERT_EQ(pagesSaved(*virt.engine), copied.size());
            ASSERT_EQ(pagesSaved(*soft.engine), copied.size());
            ASSERT_EQ(virt.image(), soft.image());
        }
        EXPECT_GT(first_touches, 50u);
        const auto *faults = dynamic_cast<const stats::Scalar *>(
            soft.rig.stats.findPath("ckpt_software.prot_faults"));
        ASSERT_NE(faults, nullptr);
        EXPECT_EQ(faults->value(), static_cast<double>(first_touches));
        ASSERT_NE(virt.rig.stats.findPath("ckpt_virtual.rollbacks"),
                  nullptr);
        EXPECT_EQ(virt.rig.stats.findPath("ckpt_virtual.prot_faults"),
                  nullptr);
    }
}

// ------------------------------------------------------------ factory

TEST(PolicyFactory, BuildsEveryScheme)
{
    MemoryRig rig;
    for (auto scheme :
         {CheckpointScheme::None, CheckpointScheme::DeltaBackup,
          CheckpointScheme::VirtualCheckpoint,
          CheckpointScheme::MemoryUpdateLog,
          CheckpointScheme::SoftwareCheckpoint,
          CheckpointScheme::DomainRewind}) {
        SystemConfig cfg = schemeConfig(scheme);
        stats::StatGroup group(
            std::string("f_") + checkpointSchemeName(scheme));
        auto p = ckpt::makePolicy(cfg, *rig.context, *rig.space,
                                  rig.phys, *rig.hierarchy, group);
        ASSERT_NE(p, nullptr);
        EXPECT_STREQ(p->name(), checkpointSchemeName(scheme));
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

// discard() drops the image, so it holds no frame and restore needs
// a new capture; that capture copies again the page whose frame was
// written in between.
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

namespace
{

/** What the last restore of a macro-engine scenario left behind. */
struct MacroRun
{
    Cycles cycles = 0;
    std::string stats;
    std::vector<std::vector<std::uint8_t>> frames;
};

/**
 * Capture, write, restore, write, then take a second image with the
 * same engine after discard() (@p discard) or with a fresh engine,
 * write again and restore it.
 */
MacroRun
discardScenario(bool discard)
{
    const std::uint64_t pages = 40;  // past the image map's rehashes
    MemoryRig rig;
    rig.space->mapRegion(pageBase, pages, os::Region::Data);
    os::SystemResources res(1);
    stats::StatGroup engines("engines");
    auto macro = std::make_unique<ckpt::MacroCheckpoint>(
        rig.cfg, rig.phys, *rig.hierarchy, engines);
    auto write_every = [&](std::uint64_t stride, std::uint64_t value) {
        for (std::uint64_t p = 0; p < pages; p += stride)
            rig.poke64(pageBase + p * rig.cfg.pageBytes + 8 * stride,
                       value + p);
    };

    write_every(1, 0x100);
    Tick t = macro->capture(0, *rig.context, *rig.space, res);
    write_every(2, 0xdead0000);
    t += macro->restore(t, *rig.context, *rig.space, res).cycles;
    write_every(3, 0xbeef0000);
    if (discard) {
        macro->discard();
    } else {
        macro.reset();
        macro = std::make_unique<ckpt::MacroCheckpoint>(
            rig.cfg, rig.phys, *rig.hierarchy, engines);
    }
    t += macro->capture(t, *rig.context, *rig.space, res);
    write_every(4, 0xf00d0000);

    MacroRun run;
    ckpt::MacroRestoreResult restored =
        macro->restore(t, *rig.context, *rig.space, res);
    EXPECT_TRUE(restored.ok);
    run.cycles = restored.cycles;
    std::ostringstream os;
    obs::TextStatSink sink(os);
    rig.stats.accept(sink);
    run.stats = os.str();
    for (Vpn vpn : rig.space->mappedPages())
        run.frames.push_back(
            rig.phys.snapshotFrame(rig.space->translate(1, vpn)));
    return run;
}

} // namespace

// discard() sets the image's pages aside and the next capture takes
// them back, skipping the copy of each frame still at the version its
// page holds. The image it builds must restore as a fresh engine's
// does: the same cycles, memory-system stats and bytes. restore()
// charges pages in the image map's order, so this pins that capture
// refills the cleared map in mapped-page order.
TEST(MacroCkpt, DiscardThenCaptureRestoresAsAFreshEngine)
{
    MacroRun reused = discardScenario(true);
    MacroRun fresh = discardScenario(false);
    EXPECT_EQ(reused.cycles, fresh.cycles);
    EXPECT_EQ(reused.stats, fresh.stats);
    EXPECT_EQ(reused.frames, fresh.frames);
}

// An image page that holds no bytes is sealed with the checksum of a
// zero page at the configured page size, and restoring it zeroes the
// frame without materializing it.
TEST(MacroCkpt, ZeroPageSealIsTheChecksumOfAZeroPage)
{
    for (std::uint32_t page_bytes : {1024u, 4096u, 8192u}) {
        SCOPED_TRACE(page_bytes);
        SystemConfig cfg = testutil::smallConfig();
        cfg.pageBytes = page_bytes;
        MemoryRig rig(cfg);
        rig.space->mapRegion(pageBase, 2, os::Region::Data);
        os::SystemResources res(1);
        ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                    rig.stats);
        const std::vector<std::uint8_t> zeros(page_bytes, 0);
        EXPECT_EQ(macro.zeroPageSum(),
                  faults::checksum64(zeros.data(), zeros.size()));

        macro.capture(0, *rig.context, *rig.space, res);
        EXPECT_EQ(macro.bufferedPages(), 0u);
        const Pfn pfn = rig.space->translate(1, pageBase / page_bytes);
        rig.poke64(pageBase + 8, 0xbad);
        ASSERT_TRUE(macro.restore(0, *rig.context, *rig.space, res).ok);
        EXPECT_TRUE(rig.phys.isZeroFrame(pfn));
        EXPECT_EQ(rig.phys.snapshotFrame(pfn), zeros);
    }
}

// A page that MacroCorrupt flipped in the image is no copy of its
// frame: after discard(), the next capture must copy it again rather
// than take the flipped buffer back as held.
TEST(MacroCkpt, CorruptedPageIsCopiedAgainAfterDiscard)
{
    MemoryRig rig;
    rig.space->mapRegion(pageBase, 4, os::Region::Data);
    os::SystemResources res(1);
    ckpt::MacroCheckpoint macro(rig.cfg, rig.phys, *rig.hierarchy,
                                rig.stats);
    faults::FaultPlan plan;
    plan.add(faults::FaultKind::MacroCorrupt, 1.0).setSeed(11);
    faults::FaultInjector inj(plan, rig.stats);

    const std::vector<Vpn> vpns = rig.space->mappedPages();
    std::vector<std::vector<std::uint8_t>> original;
    for (Vpn vpn : vpns) {
        rig.poke64(vpn * rig.cfg.pageBytes, 0x7000 + vpn);
        original.push_back(
            rig.phys.snapshotFrame(rig.space->translate(1, vpn)));
    }
    macro.setFaultInjector(&inj);
    macro.capture(0, *rig.context, *rig.space, res);
    macro.setFaultInjector(nullptr);
    std::uint64_t unheld = 0;
    for (Vpn vpn : vpns)
        unheld += !macro.holdsFrame(vpn, rig.space->translate(1, vpn));
    ASSERT_EQ(unheld, 1u);  // exactly the corrupted page

    macro.discard();
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
