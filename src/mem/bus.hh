/**
 * @file
 * Shared front-side memory bus: 8 bytes per beat at 200MHz (Table 4).
 *
 * First-come-first-served occupancy: a transfer holds the bus for
 * ceil(bytes / width) bus clocks; later requests queue behind it. The
 * bus is the shared resource between the resurrectee cores' cache-miss
 * traffic and checkpoint write-back traffic.
 */

#ifndef INDRA_MEM_BUS_HH
#define INDRA_MEM_BUS_HH

#include <algorithm>
#include <cstdint>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::mem
{

/** Timing outcome of one bus transfer. */
struct BusResult
{
    Tick startTick = 0;
    Tick doneTick = 0;
};

/** The shared memory bus. */
class MemoryBus
{
  public:
    /**
     * @param bus_ratio core clocks per bus clock
     * @param width_bytes bytes per beat (a nonzero power of 2)
     */
    MemoryBus(std::uint32_t bus_ratio, std::uint32_t width_bytes,
              stats::StatGroup &parent);

    /**
     * The mutable state one transfer touches: the occupancy horizon
     * and the counter increments not yet folded into the stats. The
     * member transfer() runs the rule over a fresh Hot;
     * MemHierarchy::pageTransfer keeps one Hot in registers across a
     * whole page of lines and commits it once.
     */
    struct Hot
    {
        Tick busyUntil = 0;
        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        std::uint64_t waitCycles = 0;
    };

    /** The current horizon, with no pending counter increments. */
    Hot hot() const { return Hot{busyUntil}; }

    /** Fold @p h's horizon and counter increments back into the bus. */
    void
    commit(const Hot &h)
    {
        busyUntil = h.busyUntil;
        statTransfers += static_cast<double>(h.transfers);
        statBytes += static_cast<double>(h.bytes);
        statWaitCycles += static_cast<double>(h.waitCycles);
    }

    /** Core cycles a transfer of @p bytes holds the bus. */
    Cycles
    occupancy(std::uint32_t bytes) const
    {
        std::uint32_t beats = (bytes + width - 1) >> widthShift;
        if (beats == 0)
            beats = 1;
        return static_cast<Cycles>(beats) * ratio;
    }

    /**
     * Occupy the bus to move @p bytes starting no earlier than
     * @p tick. Inline: one transfer per cache miss and per checkpoint
     * line copy makes this one of the hottest leaves in a storm.
     */
    BusResult
    transfer(Tick tick, std::uint32_t bytes)
    {
        Hot h = hot();
        BusResult result = transfer(h, tick, bytes, occupancy(bytes));
        commit(h);
        return result;
    }

    /**
     * The transfer rule: transfer(Tick, bytes) over the caller's
     * @p h, with the occupancy() of @p bytes passed in as @p busy so
     * a batch of equal-sized transfers computes it once.
     */
    static BusResult
    transfer(Hot &h, Tick tick, std::uint32_t bytes, Cycles busy)
    {
        ++h.transfers;
        h.bytes += bytes;

        BusResult result;
        result.startTick = std::max(tick, h.busyUntil);
        h.waitCycles += result.startTick - tick;
        result.doneTick = result.startTick + busy;
        h.busyUntil = result.doneTick;
        return result;
    }

    /** First tick at which the bus is free. */
    Tick freeAt() const { return busyUntil; }

    /** Reset occupancy (not stats). */
    void drain() { busyUntil = 0; }

  private:
    std::uint32_t ratio;
    std::uint32_t width;
    unsigned widthShift;  //!< floorLog2(width); width is a power of 2
    Tick busyUntil = 0;

    stats::StatGroup statGroup;
    stats::Scalar statTransfers;
    stats::Scalar statBytes;
    stats::Scalar statWaitCycles;
};

} // namespace indra::mem

#endif // INDRA_MEM_BUS_HH
