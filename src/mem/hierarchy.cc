#include "mem/hierarchy.hh"

#include "sim/logging.hh"

namespace indra::mem
{

MemHierarchy::MemHierarchy(const SystemConfig &cfg, CoreId core_id,
                           Privilege privilege, const Translator &xlate,
                           MemWatchdog *watchdog_ptr, MemoryBus &bus_ref,
                           DramModel &dram_ref, stats::StatGroup &parent)
    : config(cfg), geom(cfg), core(core_id), priv(privilege), xlate(xlate),
      watchdog(watchdog_ptr), bus(bus_ref), dram(dram_ref),
      statGroup(parent, "memsys"),
      l1i(cfg.l1i, statGroup),
      l1d(cfg.l1d, statGroup),
      l2(cfg.l2, statGroup),
      itlb(cfg.itlb, statGroup),
      dtlb(cfg.dtlb, statGroup),
      statFaults(statGroup, "faults", "translation/protection faults")
{
}

Cycles
MemHierarchy::uncachedLineTransfer(Tick tick, Addr addr)
{
    BusResult busr = bus.transfer(tick, config.l2.lineBytes);
    DramResult dr = dram.access(busr.startTick, addr,
                                config.l2.lineBytes);
    return dr.doneTick > tick ? dr.doneTick - tick : 1;
}

Cycles
MemHierarchy::pageTransfer(Tick tick, Pfn pfn, bool is_write)
{
    const Addr base = backupAddr(pfn, 0);
    const std::uint32_t line = config.l2.lineBytes;
    const std::uint32_t page_lines = config.pageBytes / line;
    Cache::Hot l2h;

    // One L2 decision for the whole page when its lines' sets agree.
    CacheResult run;
    const bool uniform = config.backupLineBytes == line &&
                         page_lines <= config.l2.numSets() &&
                         l2.accessRun(l2h, base, page_lines, is_write, run);
    if (uniform && run.hit) {
        l2.commit(l2h);
        return page_lines * config.l2.hitLatency;
    }

    FillPath path = openFillPath();
    Cycles cost = 0;
    if (uniform) {
        cost = fillRun(path, tick, base, page_lines, run);
    } else {
        for (std::uint32_t off = 0; off < config.pageBytes;
             off += config.backupLineBytes) {
            Addr addr = base + off;
            CacheResult l2r = l2.access(l2h, addr, is_write);
            cost += l2r.hit ? config.l2.hitLatency
                            : fillLine(path, tick + cost, addr, l2r);
        }
    }
    l2.commit(l2h);
    closeFillPath(path);
    return cost;
}

namespace
{

/**
 * What one line of a fill run did and the state it left, every tick
 * taken relative to the tick the line finished at.
 */
struct LineStep
{
    Cycles cycles = 0;
    Tick busAhead = 0;       //!< bus horizon - end tick (mod 2^64)
    DramModel::Bank page;    //!< the fills' bank, horizon relative
    DramModel::Bank victim;  //!< the write-backs' bank, likewise
    std::uint64_t busWait = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    Cycles sampled[2] = {0, 0};

    bool operator==(const LineStep &) const = default;
};

DramModel::Bank
relativeTo(DramModel::Bank bank, Tick now)
{
    bank.busyUntil -= now;
    return bank;
}

} // namespace

Cycles
MemHierarchy::fillRun(FillPath &path, Tick tick, Addr base,
                      std::uint32_t n, CacheResult run)
{
    const std::uint32_t line = config.l2.lineBytes;
    const Addr span = static_cast<Addr>(n - 1) * line;
    const bool one_row = dram.sameRow(base, base + span) &&
        (!run.writeback ||
         dram.sameRow(run.victimAddr, run.victimAddr + span));
    const std::uint32_t page_bank = dram.bankOf(base);
    const std::uint32_t victim_bank =
        run.writeback ? dram.bankOf(run.victimAddr) : page_bank;

    Cycles cost = 0;
    LineStep prev;
    for (std::uint32_t i = 0; i < n; ++i) {
        const MemoryBus::Hot bus0 = path.bus;
        const DramModel::Hot dram0 = path.dram;
        const Cycles cycles =
            fillLine(path, tick + cost, base + i * line, run);
        cost += cycles;
        if (run.writeback)
            run.victimAddr += line;
        if (!one_row)
            continue;

        const Tick now = tick + cost;
        LineStep step;
        step.cycles = cycles;
        step.busAhead = path.bus.busyUntil - now;
        step.page = relativeTo(dram.bankState(page_bank), now);
        step.victim = relativeTo(dram.bankState(victim_bank), now);
        step.busWait = path.bus.waitCycles - bus0.waitCycles;
        step.rowHits = path.dram.rowHits - dram0.rowHits;
        step.rowMisses = path.dram.rowMisses - dram0.rowMisses;
        step.rowConflicts = path.dram.rowConflicts - dram0.rowConflicts;
        step.sampled[0] = path.sampled[0];
        step.sampled[1] = run.writeback ? path.sampled[1] : 0;
        if (i == 0 || step != prev) {
            prev = step;
            continue;
        }

        // Line i left the path as line i-1 did, shifted by its cycles:
        // each of the m lines after it repeats it exactly.
        const std::uint64_t m = n - 1 - i;
        const Cycles shift = m * cycles;
        path.bus.busyUntil += shift;
        path.bus.transfers += m * (path.bus.transfers - bus0.transfers);
        path.bus.bytes += m * (path.bus.bytes - bus0.bytes);
        path.bus.waitCycles += m * step.busWait;
        dram.delayBank(page_bank, shift);
        if (victim_bank != page_bank)
            dram.delayBank(victim_bank, shift);
        path.dram.accesses += m * (path.dram.accesses - dram0.accesses);
        path.dram.rowHits += m * step.rowHits;
        path.dram.rowMisses += m * step.rowMisses;
        path.dram.rowConflicts += m * step.rowConflicts;
        path.dram.latency.sampleRepeat(step.sampled, run.writeback ? 2 : 1,
                                       m);
        ++repeatedRuns;
        return cost + shift;
    }
    return cost;
}

void
MemHierarchy::flushCaches()
{
    l1i.invalidateAll();
    l1d.invalidateAll();
    l2.invalidateAll();
}

void
MemHierarchy::flushTlbs()
{
    itlb.flushAll();
    dtlb.flushAll();
}

} // namespace indra::mem
