#include "mem/hierarchy.hh"

#include "sim/logging.hh"

namespace indra::mem
{

MemHierarchy::MemHierarchy(const SystemConfig &cfg, CoreId core_id,
                           Privilege privilege, const Translator &xlate,
                           MemWatchdog *watchdog_ptr, MemoryBus &bus_ref,
                           DramModel &dram_ref, stats::StatGroup &parent)
    : config(cfg), core(core_id), priv(privilege), xlate(xlate),
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
    Cache::Hot l2h = l2.hot();
    FillPath path = openFillPath();
    const Addr base = backupAddr(pfn, 0);
    Cycles cost = 0;
    for (std::uint32_t off = 0; off < config.pageBytes;
         off += config.backupLineBytes) {
        Addr addr = base + off;
        CacheResult l2r = l2.access(l2h, addr, is_write);
        cost += l2r.hit ? config.l2.hitLatency
                        : fillLine(path, tick + cost, addr, l2r);
    }
    l2.commit(l2h);
    closeFillPath(path);
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
