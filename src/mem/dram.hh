/**
 * @file
 * PC-SDRAM timing model after Gries & Romer [16], as integrated in the
 * paper's simulator: per-bank row buffers with page-hit / page-miss /
 * page-conflict latencies built from the CAS / RP / RCD parameters of
 * Table 4, plus burst transfer time over the 8-byte 200MHz bus.
 *
 * The model is lazily event-driven: each access carries its request
 * tick; per-bank busy-until times serialize conflicting requests
 * without a global tick loop.
 */

#ifndef INDRA_MEM_DRAM_HH
#define INDRA_MEM_DRAM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::mem
{

/** Timing outcome of one DRAM access. */
struct DramResult
{
    Tick startTick = 0;    //!< when the bank began servicing
    Tick doneTick = 0;     //!< when the last beat arrived
    Cycles latency = 0;    //!< doneTick - request tick
};

/**
 * Multi-bank SDRAM with open-row policy.
 */
class DramModel
{
  public:
    /**
     * @param cfg     DRAM geometry and timings (bus clocks)
     * @param bus_ratio core clocks per bus clock
     * @param bus_width_bytes bytes per bus beat (a nonzero power of 2)
     * @param parent  stat group to register under
     */
    DramModel(const DramConfig &cfg, std::uint32_t bus_ratio,
              std::uint32_t bus_width_bytes, stats::StatGroup &parent);

    /**
     * The mutable state one access touches outside the bank array:
     * the counter increments not yet folded into the stats and the
     * latency moments. The member access() runs the rule over a
     * fresh Hot; MemHierarchy::pageTransfer keeps one Hot in
     * registers across a whole page of lines and commits it once.
     */
    struct Hot
    {
        std::uint64_t accesses = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t rowConflicts = 0;
        stats::Distribution::Moments latency;
    };

    /** The current latency moments, with no pending increments. */
    Hot
    hot()
    {
        Hot h;
        h.latency = statLatency.moments();
        return h;
    }

    /** Fold @p h's counter increments and moments back. */
    void
    commit(const Hot &h)
    {
        statAccesses += static_cast<double>(h.accesses);
        if (h.rowHits)
            statRowHits += static_cast<double>(h.rowHits);
        if (h.rowMisses)
            statRowMisses += static_cast<double>(h.rowMisses);
        if (h.rowConflicts)
            statRowConflicts += static_cast<double>(h.rowConflicts);
        statLatency.moments() = h.latency;
    }

    /**
     * Service time in core cycles of one access of a fixed size, per
     * row-buffer state: command latency plus burst beats.
     */
    struct Timing
    {
        Cycles rowHit = 0;       //!< CAS
        Cycles rowMiss = 0;      //!< RCD + CAS
        Cycles rowConflict = 0;  //!< RP + RCD + CAS
    };

    /** The service times of an access moving @p bytes. */
    Timing
    timing(std::uint32_t bytes) const
    {
        std::uint32_t beats = (bytes + busWidth - 1) >> busWidthShift;
        if (beats == 0)
            beats = 1;
        std::uint32_t cas = config.casLatency;
        std::uint32_t rcd = config.rasToCasLatency;
        std::uint32_t rp = config.prechargeLatency;
        Timing t;
        t.rowHit = static_cast<Cycles>(cas + beats) * ratio;
        t.rowMiss = static_cast<Cycles>(rcd + cas + beats) * ratio;
        t.rowConflict = static_cast<Cycles>(rp + rcd + cas + beats) * ratio;
        return t;
    }

    /**
     * Access @p bytes at physical address @p addr at time @p tick.
     * @return start/done ticks and total latency in core cycles.
     * Inline: every L2 miss and every checkpoint/restore line lands
     * here, which makes it the single most-called timing model.
     */
    DramResult
    access(Tick tick, Addr addr, std::uint32_t bytes)
    {
        Hot h = hot();
        DramResult result = access(h, timing(bytes), tick, addr);
        commit(h);
        return result;
    }

    /**
     * The access rule: access(Tick, Addr, bytes) over the caller's
     * @p h, with the timing() of the access size passed in as @p t so
     * a batch of equal-sized accesses computes it once. Bank state is
     * updated in place.
     */
    DramResult
    access(Hot &h, const Timing &t, Tick tick, Addr addr)
    {
        ++h.accesses;
        std::uint64_t row = addr >> rowShift;
        Bank &bank = banks[row & (config.numBanks - 1)];

        Cycles service;
        if (bank.rowOpen && bank.openRow == row) {
            service = t.rowHit;
            ++h.rowHits;
        } else if (!bank.rowOpen) {
            service = t.rowMiss;
            ++h.rowMisses;
        } else {
            service = t.rowConflict;
            ++h.rowConflicts;
        }
        bank.rowOpen = true;
        bank.openRow = row;

        DramResult result;
        result.startTick = std::max(tick, bank.busyUntil);
        result.doneTick = result.startTick + service;
        result.latency = result.doneTick - tick;
        bank.busyUntil = result.doneTick;
        h.latency.sample(static_cast<double>(result.latency));
        return result;
    }

    std::uint64_t rowHits() const;
    std::uint64_t rowMisses() const;
    std::uint64_t rowConflicts() const;

    /** Reset bank state (not stats); used between measurement runs. */
    void drain();

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Tick busyUntil = 0;
    };

    DramConfig config;
    std::uint32_t ratio;       //!< core clocks per bus clock
    std::uint32_t busWidth;
    unsigned busWidthShift;  //!< floorLog2(busWidth)
    unsigned rowShift;       //!< floorLog2(config.rowBytes)
    std::vector<Bank> banks;

    stats::StatGroup statGroup;
    stats::Scalar statAccesses;
    stats::Scalar statRowHits;
    stats::Scalar statRowMisses;
    stats::Scalar statRowConflicts;
    stats::Distribution statLatency;
};

} // namespace indra::mem

#endif // INDRA_MEM_DRAM_HH
