#include "mem/bus.hh"

#include "sim/logging.hh"

namespace indra::mem
{

MemoryBus::MemoryBus(std::uint32_t bus_ratio, std::uint32_t width_bytes,
                     stats::StatGroup &parent)
    : ratio(bus_ratio), width(width_bytes),
      widthShift(floorLog2(width_bytes)),
      statGroup(parent, "bus"),
      statTransfers(statGroup, "transfers", "bus transactions"),
      statBytes(statGroup, "bytes", "bytes moved"),
      statWaitCycles(statGroup, "wait_cycles",
                     "core cycles spent waiting for the bus")
{
    panic_if(ratio == 0 || !isPowerOf2(width), "bad bus parameters");
}

} // namespace indra::mem
