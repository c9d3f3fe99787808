/**
 * @file
 * Per-core memory hierarchy: I/D TLBs, split L1s, a private unified
 * L2, and the shared bus + DRAM behind them (Table 4 geometry).
 *
 * The hierarchy is a timing model over virtual addresses (the private
 * caches are virtually indexed/tagged; a context switch flushes).
 * Functional data lives in PhysicalMemory; translation is supplied by
 * the OS through the Translator interface, and every translated access
 * from a low-privilege core passes the memory watchdog.
 */

#ifndef INDRA_MEM_HIERARCHY_HH
#define INDRA_MEM_HIERARCHY_HH

#include <cstdint>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/tlb.hh"
#include "mem/watchdog.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::mem
{

/**
 * vpn -> pfn translation source (implemented by os::AddressSpace).
 */
class Translator
{
  public:
    virtual ~Translator() = default;

    /** @return the frame for (@p pid, @p vpn), or invalidPfn. */
    virtual Pfn translate(Pid pid, Vpn vpn) const = 0;
};

/** Architectural faults an access can raise. */
enum class MemFault : std::uint8_t
{
    None,        //!< completed normally
    Unmapped,    //!< no translation (segfault)
    Protection,  //!< watchdog denial (touched a private frame)
};

/** Timing + event outcome of one access. */
struct MemOutcome
{
    Cycles latency = 0;
    MemFault fault = MemFault::None;
    /** An instruction fetch filled a new L1I line (L2->IL1 interface). */
    bool l1iFill = false;
    /** The access missed all on-chip caches and went to DRAM. */
    bool wentToDram = false;
    /** The frame the access translated to (invalidPfn on Unmapped). */
    Pfn pfn = invalidPfn;
};

/**
 * The hierarchy owned by one core.
 */
class MemHierarchy
{
  public:
    /**
     * @param cfg     full system configuration
     * @param core    owning core's id
     * @param priv    owning core's privilege level
     * @param xlate   translation source
     * @param watchdog shared watchdog (may be nullptr for the
     *                resurrector, which is unconstrained)
     * @param bus     shared memory bus
     * @param dram    shared DRAM
     * @param parent  stat group to register under
     */
    MemHierarchy(const SystemConfig &cfg, CoreId core, Privilege priv,
                 const Translator &xlate, MemWatchdog *watchdog,
                 MemoryBus &bus, DramModel &dram,
                 stats::StatGroup &parent);

    /** Instruction fetch touching the block at @p vaddr. */
    MemOutcome
    fetch(Tick tick, Pid pid, Addr vaddr)
    {
        MemOutcome out;
        out.fault = translateAndCheck(pid, vaddr, out.pfn);
        if (out.fault != MemFault::None) {
            ++statFaults;
            return out;
        }

        Cycles latency = 0;
        if (!itlb.access(pid, geom.vpnOf(vaddr)).hit)
            latency += itlb.missPenalty();

        CacheResult l1r = l1i.access(vaddr, false);
        latency += config.l1i.hitLatency;
        if (l1r.hit) {
            out.latency = latency;
            return out;
        }

        // L1I miss: the fill crosses the L2->IL1 interface, which is
        // where INDRA's code-origin inspection hooks in (Section 2.3.2).
        out = l2Path(tick, vaddr, false, latency, out.pfn);
        out.l1iFill = true;
        return out;
    }

    /** Data load of up to one line at @p vaddr. */
    MemOutcome
    load(Tick tick, Pid pid, Addr vaddr)
    {
        MemOutcome out;
        out.fault = translateAndCheck(pid, vaddr, out.pfn);
        if (out.fault != MemFault::None) {
            ++statFaults;
            return out;
        }

        Cycles latency = 0;
        if (!dtlb.access(pid, geom.vpnOf(vaddr)).hit)
            latency += dtlb.missPenalty();

        CacheResult l1r = l1d.access(vaddr, false);
        latency += config.l1d.hitLatency;
        if (l1r.hit) {
            out.latency = latency;
            return out;
        }
        if (l1r.writeback)
            l2.access(l1r.victimAddr, true);
        return l2Path(tick, vaddr, false, latency, out.pfn);
    }

    /** Data store of up to one line at @p vaddr. */
    MemOutcome
    store(Tick tick, Pid pid, Addr vaddr)
    {
        MemOutcome out;
        out.fault = translateAndCheck(pid, vaddr, out.pfn);
        if (out.fault != MemFault::None) {
            ++statFaults;
            return out;
        }

        Cycles latency = 0;
        if (!dtlb.access(pid, geom.vpnOf(vaddr)).hit)
            latency += dtlb.missPenalty();

        CacheResult l1r = l1d.access(vaddr, true);
        latency += config.l1d.hitLatency;
        if (l1r.hit) {
            out.latency = latency;
            return out;
        }
        if (l1r.writeback)
            l2.access(l1r.victimAddr, true);
        // Write-allocate: fetch the line, then the store completes.
        return l2Path(tick, vaddr, true, latency, out.pfn);
    }

    /**
     * Move one backup-granularity line through the data path on behalf
     * of a checkpoint engine (active-page read or backup-page write).
     * @p cache_addr is a synthetic address that must not collide with
     * application virtual addresses; use backupAddr() for frames.
     */
    Cycles
    lineTransfer(Tick tick, Addr cache_addr, bool is_write)
    {
        CacheResult l2r = l2.access(cache_addr, is_write);
        if (l2r.hit)
            return config.l2.hitLatency;
        FillPath path = openFillPath();
        Cycles cycles = fillLine(path, tick, cache_addr, l2r);
        closeFillPath(path);
        return cycles;
    }

    /**
     * Move every backup line of frame @p pfn through the data path, in
     * offset order, each line issued when the previous one finished:
     * the same charge, and the same L2/bus/DRAM end state and stats,
     * as the equivalent loop of lineTransfer() calls. When the page's
     * lines are L2 lines whose sets hold the same ways, one L2
     * decision (Cache::accessRun) stands for all of them. When that
     * decision is a miss whose fills fall in one DRAM row, and whose
     * write-backs (if any) in one row too, the fill chain runs line by
     * line only until a line repeats the one before it (fillRun());
     * the rest of the page is then known and is added in one step.
     * The L2 counters, bus horizon and DRAM latency moments stay in
     * locals for the whole page and are stored back once.
     * @return the cycles the page took
     */
    Cycles pageTransfer(Tick tick, Pfn pfn, bool is_write);

    /**
     * Pages whose fill chain pageTransfer() charged in one step once
     * it repeated: a host-side count for tests, not a stat.
     */
    std::uint64_t repeatedFillRuns() const { return repeatedRuns; }

    /** Synthetic address region for checkpoint/backup traffic. */
    static constexpr Addr backupRegionBase = 1ULL << 40;

    /**
     * Synthetic cache address for byte @p offset of physical frame
     * @p pfn, disjoint from the application's virtual address range.
     */
    Addr
    backupAddr(Pfn pfn, std::uint32_t offset) const
    {
        return backupRegionBase + pfn * config.pageBytes + offset;
    }

    /**
     * Move one line over the bus to/from DRAM without touching the
     * caches (DMA-style page copies used by the whole-page checkpoint
     * schemes). Returns the latency in cycles.
     */
    Cycles uncachedLineTransfer(Tick tick, Addr addr);

    /** Flush L1s and L2 (context switch / recovery / reboot). */
    void flushCaches();

    /** Flush both TLBs. */
    void flushTlbs();

    Cache &l1iCache() { return l1i; }
    Cache &l1dCache() { return l1d; }
    Cache &l2Cache() { return l2; }
    Tlb &dTlb() { return dtlb; }

    CoreId coreId() const { return core; }
    Privilege privilege() const { return priv; }

  private:
    /**
     * The bus and DRAM state a run of backup line fills keeps in
     * registers, plus the per-line bus occupancy and DRAM service
     * times, which are the same for every line of the run.
     */
    struct FillPath
    {
        MemoryBus::Hot bus;
        DramModel::Hot dram;
        Cycles busBusy;
        DramModel::Timing dramTiming;
        /**
         * The DRAM latencies the last fillLine() sampled: the fill,
         * then the write-back's when it had one.
         */
        Cycles sampled[2];
    };

    FillPath
    openFillPath()
    {
        return {bus.hot(), dram.hot(), bus.occupancy(config.l2.lineBytes),
                dram.timing(config.l2.lineBytes), {0, 0}};
    }

    void
    closeFillPath(const FillPath &path)
    {
        bus.commit(path.bus);
        dram.commit(path.dram);
    }

    /**
     * The L2-miss half of lineTransfer(), over an open @p path: fetch
     * the line over the bus from DRAM, then write back the dirty
     * victim @p l2r reports, if any.
     * @return the cycles from @p tick until the line arrived
     */
    Cycles
    fillLine(FillPath &path, Tick tick, Addr cache_addr,
             const CacheResult &l2r)
    {
        const Cycles hit_latency = config.l2.hitLatency;
        const std::uint32_t line_bytes = config.l2.lineBytes;
        BusResult busr = MemoryBus::transfer(
            path.bus, tick + hit_latency, line_bytes, path.busBusy);
        DramResult dr = dram.access(path.dram, path.dramTiming,
                                    busr.startTick, cache_addr);
        path.sampled[0] = dr.latency;
        if (l2r.writeback) {
            BusResult wb = MemoryBus::transfer(
                path.bus, dr.doneTick, line_bytes, path.busBusy);
            path.sampled[1] = dram.access(path.dram, path.dramTiming,
                                          wb.startTick, l2r.victimAddr)
                                  .latency;
        }
        return dr.doneTick > tick ? dr.doneTick - tick : hit_latency;
    }

    /**
     * Fill the @p n lines from @p base, which all missed with the one
     * L2 outcome @p run (line i's victim is run.victimAddr + i lines),
     * in order over an open @p path: the uniform-miss half of
     * pageTransfer(). Every fill adds cycles to ticks and takes maxima
     * of them, so the chain is invariant under a shift of every tick.
     * When the fills share one DRAM row and the write-backs one row, a
     * line that leaves the bus and both banks as the line before it
     * did, relative to its end tick, proves that every later line
     * repeats it; those lines are then charged in one step, their
     * latencies included: Moments::sampleRepeat() adds them in closed
     * form, bit for bit as the per-line samples would.
     * @return the cycles the lines took
     */
    Cycles fillRun(FillPath &path, Tick tick, Addr base, std::uint32_t n,
                   CacheResult run);

    /** Shared L2-and-beyond path for both instruction and data. */
    MemOutcome
    l2Path(Tick tick, Addr vaddr, bool is_write, Cycles latency_so_far,
           Pfn pfn)
    {
        MemOutcome out;
        out.pfn = pfn;
        out.latency = latency_so_far + config.l2.hitLatency;

        CacheResult l2r = l2.access(vaddr, is_write);
        if (l2r.hit)
            return out;

        // L2 miss: fetch the line over the bus from DRAM.
        out.wentToDram = true;
        Tick request_tick = tick + out.latency;
        BusResult busr = bus.transfer(request_tick, config.l2.lineBytes);
        DramResult dr =
            dram.access(busr.startTick, vaddr, config.l2.lineBytes);
        out.latency = (dr.doneTick > tick) ? (dr.doneTick - tick)
                                           : out.latency;

        // A dirty L2 victim is written back; it occupies the bus and a
        // DRAM bank but is off the load's critical path.
        if (l2r.writeback) {
            BusResult wb = bus.transfer(dr.doneTick, config.l2.lineBytes);
            dram.access(wb.startTick, l2r.victimAddr, config.l2.lineBytes);
        }
        return out;
    }

    /**
     * Translate into @p pfn and watchdog-check.
     * @return the fault the access raises, if any
     */
    MemFault
    translateAndCheck(Pid pid, Addr vaddr, Pfn &pfn) const
    {
        pfn = xlate.translate(pid, geom.vpnOf(vaddr));
        if (pfn == invalidPfn)
            return MemFault::Unmapped;
        if (watchdog &&
            watchdog->check(core, priv, pfn) != WatchdogVerdict::Allowed) {
            return MemFault::Protection;
        }
        return MemFault::None;
    }

    const SystemConfig &config;
    const PageGeometry geom;
    CoreId core;
    Privilege priv;
    const Translator &xlate;
    MemWatchdog *watchdog;
    MemoryBus &bus;
    DramModel &dram;

    stats::StatGroup statGroup;
    Cache l1i;
    Cache l1d;
    Cache l2;
    Tlb itlb;
    Tlb dtlb;
    stats::Scalar statFaults;
    std::uint64_t repeatedRuns = 0;
};

} // namespace indra::mem

#endif // INDRA_MEM_HIERARCHY_HH
