/** @file Corner-case timing tests: pipeline width sweep, DRAM bank
 * mapping, FIFO/monitor interactions under bursts, and the page
 * transfer kernel against the per-line path it batches. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/policy.hh"
#include "cpu/core.hh"
#include "mem/dram.hh"
#include "mem/trace_fifo.hh"
#include "monitor/monitor.hh"
#include "obs/stat_sinks.hh"
#include "sim/random.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

// Width sweep: N warm ALU instructions retire in ceil(N/width) cycles.
class WidthSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(WidthSweep, WarmAluThroughputMatchesWidth)
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.commitWidth = GetParam();
    cfg.fetchWidth = GetParam();
    MemoryRig rig(cfg);
    rig.space->mapRegion(0x00400000, 4, os::Region::Code);
    cpu::Core core(cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
                   rig.stats);

    cpu::Instruction alu;
    alu.op = cpu::Op::Alu;
    alu.pc = 0x00400000;
    core.execute(1, alu);  // warm the line
    Tick warm = core.curTick();
    const std::uint32_t n = 24;
    for (std::uint32_t i = 1; i < n; ++i) {
        alu.pc = 0x00400000 + (i % 8) * 4;  // stay in one line
        core.execute(1, alu);
    }
    // Slots used: n total (1 warm + n-1); cycles elapsed floor(n/w).
    EXPECT_EQ(core.curTick(), warm + (n / GetParam()) -
                                  (1 + 0) / GetParam());
    EXPECT_EQ(core.instructions(), n);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// DRAM bank mapping: consecutive rows go to consecutive banks.
TEST(DramCorners, RowsInterleaveAcrossBanks)
{
    stats::StatGroup g("t");
    DramConfig d;
    d.numBanks = 4;
    d.rowBytes = 4096;
    mem::DramModel dram(d, 5, 8, g);
    // Touch rows 0..3 (banks 0..3): all row-misses, no conflicts.
    for (int r = 0; r < 4; ++r)
        dram.access(0, static_cast<Addr>(r) * 4096, 64);
    EXPECT_EQ(dram.rowConflicts(), 0u);
    // Row 4 lands back on bank 0 with row 0 open: conflict.
    dram.access(100000, 4ull * 4096, 64);
    EXPECT_EQ(dram.rowConflicts(), 1u);
}

TEST(DramCorners, LatencyIncludesQueueingInResult)
{
    stats::StatGroup g("t");
    DramConfig d;
    mem::DramModel dram(d, 5, 8, g);
    auto r1 = dram.access(0, 0, 64);
    auto r2 = dram.access(0, 64, 64);  // same bank, queued
    EXPECT_EQ(r2.latency, r2.doneTick - 0);
    EXPECT_GT(r2.latency, r1.latency);
}

// A burst of records through a small FIFO stalls the producer by an
// exactly computable amount.
TEST(FifoCorners, BurstStallIsExact)
{
    stats::StatGroup g("t");
    mem::TraceFifo fifo(2, g);
    const Cycles cost = 100;
    // Push 10 records at tick 0. Service starts: 0,100,...,900. A
    // slot frees when its record *starts* service, so push i first
    // finds the FIFO full at i == 3 and waits for start(i-2).
    Tick last_done = 0;
    for (int i = 0; i < 10; ++i) {
        auto r = fifo.push(0, cost);
        last_done = r.pushDoneTick;
        if (i >= 3) {
            EXPECT_EQ(r.pushDoneTick,
                      static_cast<Tick>((i - 2) * 100));
        }
    }
    EXPECT_EQ(last_done, 700u);
    EXPECT_EQ(fifo.drainTick(), 1000u);
}

// Tick/Cycles widening at the event-skipping jump points: adding a
// whole event gap to a tick near the end of the representable range
// must pin to maxTick, never wrap behind the current time. Pre-fix
// code added raw uint64s, so `maxTick - 10 + 100` wrapped to 89 — a
// tick in the past — and every downstream comparison inverted.
TEST(TimingCorners, SaturatingAddPinsAtMaxTick)
{
    EXPECT_EQ(saturatingAdd(0, 0), 0u);
    EXPECT_EQ(saturatingAdd(100, 23), 123u);
    EXPECT_EQ(saturatingAdd(maxTick, 0), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick, 1), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick - 1, 1), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick - 10, 100), maxTick);
    EXPECT_EQ(saturatingAdd(1, maxTick), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick, maxTick), maxTick);
    // The wrap the raw add would have produced, as a guard against
    // the assertion itself going stale: the saturated result must be
    // no less than either operand.
    const Tick near_end = maxTick - 10;
    EXPECT_GE(saturatingAdd(near_end, 100), near_end);
}

// The skip path is monotone through saturation: jumping a core's
// timeline by successive saturated gaps can never move time backward.
TEST(TimingCorners, SaturatedJumpsStayMonotone)
{
    Tick t = maxTick - 1000;
    Tick prev = t;
    for (Cycles gap : {1u, 999u, 1u, 5000u, 0u, 1u << 30}) {
        t = saturatingAdd(t, gap);
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_EQ(t, maxTick);
}

// Monitor under a mixed burst keeps per-kind accounting straight.
TEST(MonitorCorners, MixedBurstAccounting)
{
    SystemConfig cfg;
    stats::StatGroup g("t");
    mon::Monitor monitor(cfg, g);
    monitor.registerCodePage(1, 0x00400000);
    monitor.registerFunctionEntry(1, 0x00400200);

    for (int i = 0; i < 5; ++i) {
        cpu::TraceRecord call;
        call.kind = cpu::TraceKind::Call;
        call.pid = 1;
        call.retAddr = 0x00400104 + i * 16;
        monitor.submit(call, i * 10);

        cpu::TraceRecord xfer;
        xfer.kind = cpu::TraceKind::CtrlTransfer;
        xfer.pid = 1;
        xfer.target = 0x00400200;
        monitor.submit(xfer, i * 10 + 1);
    }
    EXPECT_EQ(monitor.recordsProcessed(), 10u);
    EXPECT_EQ(monitor.violationsDetected(), 0u);
    // The serial consumer finished strictly after the naive sum of
    // the earlier arrivals would suggest (it had to queue).
    EXPECT_GE(monitor.drainTick(),
              5 * (cfg.recordDequeueCycles +
                   cfg.callReturnCheckCycles) +
                  5 * (cfg.recordDequeueCycles +
                       cfg.ctrlTransferCheckCycles));
}

// Backup-record TLB interplay: a store to a TLB-resident page skips
// the record-fetch surcharge.
TEST(DeltaCorners, TlbResidentRecordIsCheaper)
{
    MemoryRig rig;
    rig.space->mapRegion(0x10000000, 2, os::Region::Data);
    stats::StatGroup g("t");
    SystemConfig cfg = rig.cfg;
    auto policy = ckpt::makePolicy(cfg, *rig.context, *rig.space,
                                   rig.phys, *rig.hierarchy, g);
    rig.context->incrementGts();
    policy->onRequestBegin(0);

    // Cold: D-TLB does not hold the page -> record fetch surcharge.
    Cycles cold = policy->onStore(0, 1, 0x10000000, 8);
    // Warm the TLB through a real access, then store to a NEW line of
    // the same page: the record rides in the TLB entry.
    rig.hierarchy->load(0, 1, 0x10000000);
    Cycles warm = policy->onStore(1000, 1, 0x10000040, 8);
    EXPECT_GT(cold, warm);
}

// ------------------------------------------------ page-transfer kernel

namespace
{

/** Every stat of a tree with its exact bits (hexfloat), in order. */
class ExactStatSink : public obs::PrefixedStatSink
{
  public:
    void
    visitScalar(const stats::StatBase &stat, double value) override
    {
        out << prefix() << stat.name() << '=' << std::hexfloat << value
            << '\n';
    }

    void
    visitDistribution(const stats::Distribution &dist) override
    {
        out << prefix() << dist.name() << '=' << dist.count() << ' '
            << std::hexfloat << dist.sum() << ' ' << dist.minValue()
            << ' ' << dist.maxValue() << ' ' << dist.variance() << '\n';
    }

    void
    visitHistogram(const stats::Histogram &hist) override
    {
        out << prefix() << hist.name() << '=' << hist.count() << '\n';
    }

    std::ostringstream out;
};

std::string
textDump(const stats::StatGroup &group)
{
    std::ostringstream os;
    obs::TextStatSink sink(os);
    group.accept(sink);
    return os.str();
}

std::string
exactDump(const stats::StatGroup &group)
{
    ExactStatSink sink;
    group.accept(sink);
    return sink.out.str();
}

/** How a case's L2 pre-state is built. */
enum class Warm
{
    Random,      //!< random lines of and around the page
    Group,       //!< whole-page transfers of frames sharing its sets
    GroupTag,    //!< Group, but one set holds one other tag
    GroupDirty,  //!< Group, but one set has one dirty bit flipped
    GroupValid,  //!< Group, but one set has its LRU line invalid
};

/** One seeded pre-state for a page transfer of frame pfn at tick. */
struct PageCase
{
    SystemConfig cfg;
    Pfn pfn = 0;
    Tick tick = 0;
    bool isWrite = false;
    Warm warm = Warm::Random;
    /** The bus is left busy until long after the page would finish. */
    bool busyBus = false;
};

/**
 * Seeds past this one warm the L2 by whole-page transfers; seeds past
 * twice this one make uniform pages whose fills share one DRAM row.
 */
constexpr std::uint64_t randomSeeds = 240;

PageCase
pageCase(std::uint64_t seed)
{
    Pcg32 rng(seed);
    PageCase c;
    c.cfg = testutil::smallConfig();
    if (seed > 2 * randomSeeds) {
        // The shape whose fill chain pageTransfer extrapolates once it
        // repeats. The default L2's sets repeat every 32 frames, so a
        // page's victims sit in its own DRAM bank; with one set per
        // page line they sit in the next few frames, in other banks.
        c.warm = Warm::Group;
        if (rng.next() & 1) {
            c.cfg.l2.sizeBytes = static_cast<std::uint64_t>(
                c.cfg.pageBytes) * c.cfg.l2.associativity;
        }
        c.busyBus = rng.nextBounded(3) == 0;
    } else if (seed > randomSeeds) {
        // Backup lines are L2 lines and a page fits in the sets: the
        // shape pageTransfer can take as one L2 decision.
        const Warm kinds[] = {Warm::Group, Warm::GroupTag,
                              Warm::GroupDirty, Warm::GroupValid};
        c.warm = rng.next() & 1 ? Warm::Group : kinds[rng.nextBounded(4)];
        // Half of them use DRAM rows shorter than a page, so each
        // line's fill and write-back address shows in the bank state.
        if (rng.next() & 1)
            c.cfg.dram.rowBytes = 512;
    } else {
        const std::uint32_t line_sizes[] = {32, 64, 128};
        c.cfg.backupLineBytes = line_sizes[rng.nextBounded(3)];
        // Half the cases use a 16-set L2, so one page's lines wrap the
        // sets four times and evict each other in LRU order.
        if (rng.next() & 1)
            c.cfg.l2.sizeBytes =
                16 * c.cfg.l2.associativity * c.cfg.l2.lineBytes;
    }
    c.pfn = 1 + rng.nextBounded(4000);
    c.tick = rng.nextBounded(5000);
    c.isWrite = rng.next() & 1;
    return c;
}

/**
 * Warm the L2 by transferring, line by line, at least associativity
 * whole pages whose lines land in the same sets as the page of @p c,
 * so its sets hold the same lines in the same order. The mutated
 * kinds then make exactly one set differ.
 */
void
warmGroup(mem::MemHierarchy &h, const PageCase &c, Pcg32 &rng)
{
    const std::uint32_t line = c.cfg.l2.lineBytes;
    const std::uint32_t page_lines = c.cfg.pageBytes / line;
    const std::uint32_t ways = c.cfg.l2.associativity;
    // Frames this far apart map their lines to the same sets.
    const Pfn stride = c.cfg.l2.numSets() / page_lines;

    std::vector<Pfn> frames;
    std::uint32_t count = ways + rng.nextBounded(3);
    for (std::uint32_t k = 1; k <= count; ++k)
        frames.push_back(c.pfn + k * stride);
    if (rng.next() & 1)  // a hit page, unless it was evicted again
        frames[rng.nextBounded(count)] = c.pfn;
    const Pfn outsider = c.pfn + (count + 1) * stride;
    const std::size_t oldest = frames.size() - ways;

    const std::uint32_t odd = rng.nextBounded(page_lines);
    Tick t = rng.nextBounded(5000);
    for (std::size_t k = 0; k < frames.size(); ++k) {
        bool write = rng.next() & 1;
        for (std::uint32_t i = 0; i < page_lines; ++i) {
            Pfn pfn = frames[k];
            bool w = write;
            if (i == odd && k == oldest && c.warm == Warm::GroupTag)
                pfn = outsider;
            if (i == odd && k + 1 == frames.size() &&
                c.warm == Warm::GroupDirty)
                w = !write;
            t += h.lineTransfer(t, h.backupAddr(pfn, i * line), w);
        }
    }
    if (c.warm == Warm::GroupValid)
        h.l2Cache().invalidateLine(h.backupAddr(frames[oldest], odd * line));
}

/**
 * Drive @p rig into the pre-state of @p seed: L2 lines of the target
 * page and dirty lines aliasing its sets, a bus busy past the
 * transfer tick, and each DRAM bank left as it was, given an open
 * row next to the page's, or given a row conflicting with that one.
 */
void
warmPath(MemoryRig &rig, const PageCase &c, std::uint64_t seed)
{
    Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    mem::MemHierarchy &h = *rig.hierarchy;
    const Addr base = h.backupAddr(c.pfn, 0);
    const std::uint32_t line = c.cfg.l2.lineBytes;
    const Addr set_stride = c.cfg.l2.numSets() * line;
    const std::uint32_t lines_per_page = c.cfg.pageBytes / line;

    if (c.warm != Warm::Random) {
        warmGroup(h, c, rng);
    } else {
        std::uint32_t fills = rng.nextBounded(400);
        for (std::uint32_t i = 0; i < fills; ++i) {
            Addr addr = base + rng.nextBounded(lines_per_page) * line +
                rng.nextBounded(6) * set_stride;
            bool write = rng.next() & 1;
            if (rng.nextBounded(4) == 0)
                h.lineTransfer(rng.nextBounded(5000), addr, write);
            else
                h.l2Cache().access(addr, write);
        }
    }

    const Addr bank_stride =
        static_cast<Addr>(c.cfg.dram.rowBytes) * c.cfg.dram.numBanks;
    for (std::uint32_t b = 0; b < c.cfg.dram.numBanks; ++b) {
        Addr row_addr = base + b * c.cfg.dram.rowBytes;
        switch (rng.nextBounded(3)) {
          case 0:  // open row page_row + b (b == 0: the page's own row)
            rig.dram.access(c.tick + rng.nextBounded(3000), row_addr, line);
            break;
          case 1:  // open another row of the same bank: conflicts
            rig.dram.access(c.tick + rng.nextBounded(3000),
                            row_addr + (1 + rng.nextBounded(8)) * bank_stride,
                            line);
            break;
          default:  // leave the bank as it is
            break;
        }
    }
    if (rng.next() & 1)
        rig.bus.transfer(c.tick + rng.nextBounded(2000),
                         line * (1 + rng.nextBounded(16)));
    if (c.busyBus)
        rig.bus.transfer(c.tick, 64 * c.cfg.pageBytes);
}

} // namespace

// pageTransfer batches a page's lineTransfer calls: for every seeded
// pre-state it must return the same cycles and leave the same L2, bus,
// DRAM and stats state behind as the per-line loop, whether it takes
// the page as one L2 decision or falls back to a decision per line,
// and whether it extrapolates a repeating fill chain or runs it out.
TEST(PageTransferKernel, EqualsPerLineLoopOverSeededPreStates)
{
    std::uint32_t run_hits = 0;
    std::uint32_t run_misses = 0;
    std::uint32_t run_writebacks = 0;
    std::uint32_t fallbacks = 0;
    // Pages whose fill chain was extrapolated, by pre-state kind.
    std::uint32_t repeated_same_bank = 0;
    std::uint32_t repeated_other_bank = 0;
    std::uint32_t repeated_busy_bus = 0;
    for (std::uint64_t seed = 1; seed <= 3 * randomSeeds; ++seed) {
        SCOPED_TRACE(seed);
        PageCase c = pageCase(seed);
        MemoryRig kernel(c.cfg);
        MemoryRig lines(c.cfg);
        warmPath(kernel, c, seed);
        warmPath(lines, c, seed);
        ASSERT_EQ(exactDump(kernel.stats), exactDump(lines.stats));

        // Whether pageTransfer takes the page as one L2 decision: ask
        // the L2 of a third copy of the pre-state.
        const std::uint32_t page_lines =
            c.cfg.pageBytes / c.cfg.l2.lineBytes;
        bool run = false;
        mem::CacheResult first;
        if (c.cfg.backupLineBytes == c.cfg.l2.lineBytes &&
            page_lines <= c.cfg.l2.numSets()) {
            MemoryRig probe(c.cfg);
            warmPath(probe, c, seed);
            mem::Cache::Hot hot;
            run = probe.hierarchy->l2Cache().accessRun(
                hot, probe.hierarchy->backupAddr(c.pfn, 0), page_lines,
                c.isWrite, first);
        }
        if (c.warm == Warm::Group) {
            EXPECT_TRUE(run);
        } else if (c.warm != Warm::Random) {
            EXPECT_FALSE(run);
        }
        if (!run)
            ++fallbacks;
        else if (first.hit)
            ++run_hits;
        else
            ++(first.writeback ? run_writebacks : run_misses);

        const std::uint64_t repeated_before =
            kernel.hierarchy->repeatedFillRuns();
        Cycles batched =
            kernel.hierarchy->pageTransfer(c.tick, c.pfn, c.isWrite);
        if (kernel.hierarchy->repeatedFillRuns() != repeated_before) {
            ASSERT_TRUE(run && !first.hit);
            // Rows shorter than a page keep the per-line loop.
            ASSERT_GE(c.cfg.dram.rowBytes, c.cfg.pageBytes);
            if (c.busyBus)
                ++repeated_busy_bus;
            if (first.writeback) {
                const Addr page = kernel.hierarchy->backupAddr(c.pfn, 0);
                ++(kernel.dram.bankOf(first.victimAddr) ==
                           kernel.dram.bankOf(page)
                       ? repeated_same_bank
                       : repeated_other_bank);
            }
        }
        Cycles looped = 0;
        for (std::uint32_t off = 0; off < c.cfg.pageBytes;
             off += c.cfg.backupLineBytes) {
            looped += lines.hierarchy->lineTransfer(
                c.tick + looped, lines.hierarchy->backupAddr(c.pfn, off),
                c.isWrite);
        }
        EXPECT_EQ(batched, looped);
        EXPECT_EQ(textDump(kernel.stats), textDump(lines.stats));
        EXPECT_EQ(exactDump(kernel.stats), exactDump(lines.stats));
        EXPECT_EQ(kernel.bus.freeAt(), lines.bus.freeAt());

        // The L2 holds the same lines ...
        const std::uint32_t line = c.cfg.l2.lineBytes;
        const Addr set_stride = c.cfg.l2.numSets() * line;
        const Addr base = kernel.hierarchy->backupAddr(c.pfn, 0);
        for (std::uint32_t off = 0; off < c.cfg.pageBytes; off += line) {
            for (Addr alias = 0; alias < 6; ++alias) {
                Addr addr = base + off + alias * set_stride;
                ASSERT_EQ(kernel.hierarchy->l2Cache().contains(addr),
                          lines.hierarchy->l2Cache().contains(addr))
                    << "addr " << addr;
            }
        }
        // ... with the same LRU order and dirty bits, and every DRAM
        // bank has the same open row and horizon: a common probe
        // sequence through both sees identical timing and stats.
        Pcg32 probe(seed * 31 + 7);
        Tick t = c.tick + looped;
        for (int i = 0; i < 200; ++i) {
            Addr addr = base + probe.nextBounded(c.cfg.pageBytes / line) *
                line + probe.nextBounded(6) * set_stride;
            bool write = probe.next() & 1;
            Cycles a = kernel.hierarchy->lineTransfer(t, addr, write);
            Cycles b = lines.hierarchy->lineTransfer(t, addr, write);
            ASSERT_EQ(a, b) << "probe " << i;
            t += a;
        }
        for (std::uint32_t bank = 0; bank < c.cfg.dram.numBanks; ++bank) {
            Addr addr = base + bank * c.cfg.dram.rowBytes;
            EXPECT_EQ(kernel.dram.access(c.tick, addr, line).latency,
                      lines.dram.access(c.tick, addr, line).latency);
        }
        EXPECT_EQ(exactDump(kernel.stats), exactDump(lines.stats));
    }
    // The one-decision run (hit, clean miss and dirty-victim miss
    // pages) and the per-line fallback both fired.
    EXPECT_GT(run_hits, 0u);
    EXPECT_GT(run_misses, 0u);
    EXPECT_GT(run_writebacks, 0u);
    EXPECT_GT(fallbacks, 0u);
    // The repeat was found with write-backs to the page's own bank and
    // to another bank, and behind a bus busy past the page.
    EXPECT_GT(repeated_same_bank, 0u);
    EXPECT_GT(repeated_other_bank, 0u);
    EXPECT_GT(repeated_busy_bus, 0u);
}
