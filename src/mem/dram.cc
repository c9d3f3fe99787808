#include "mem/dram.hh"

#include "sim/logging.hh"

namespace indra::mem
{

DramModel::DramModel(const DramConfig &cfg, std::uint32_t bus_ratio,
                     std::uint32_t bus_width_bytes,
                     stats::StatGroup &parent)
    : config(cfg), ratio(bus_ratio), busWidth(bus_width_bytes),
      busWidthShift(floorLog2(bus_width_bytes)),
      rowShift(floorLog2(cfg.rowBytes)),
      banks(cfg.numBanks),
      statGroup(parent, "dram"),
      statAccesses(statGroup, "accesses", "DRAM accesses"),
      statRowHits(statGroup, "row_hits", "open-row page hits"),
      statRowMisses(statGroup, "row_misses", "row-closed page misses"),
      statRowConflicts(statGroup, "row_conflicts",
                       "different-row page conflicts"),
      statLatency(statGroup, "latency", "access latency, core cycles")
{
    panic_if(ratio == 0, "bus ratio must be nonzero");
    panic_if(!isPowerOf2(busWidth), "bus width must be a power of 2");
    panic_if(!isPowerOf2(config.rowBytes),
             "DRAM row size must be a power of 2");
    panic_if(!isPowerOf2(config.numBanks),
             "DRAM bank count must be a power of 2");
}

std::uint64_t
DramModel::rowHits() const
{
    return static_cast<std::uint64_t>(statRowHits.value());
}

std::uint64_t
DramModel::rowMisses() const
{
    return static_cast<std::uint64_t>(statRowMisses.value());
}

std::uint64_t
DramModel::rowConflicts() const
{
    return static_cast<std::uint64_t>(statRowConflicts.value());
}

void
DramModel::drain()
{
    for (Bank &b : banks) {
        b.rowOpen = false;
        b.busyUntil = 0;
    }
}

} // namespace indra::mem
