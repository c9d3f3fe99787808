/**
 * @file
 * A set-associative cache timing model with true-LRU replacement and
 * write-back dirty-line tracking.
 *
 * The model is tag-only: data values live in PhysicalMemory; the cache
 * decides hit/miss, tracks dirty lines, and reports evictions so the
 * next level (and the DRAM model) can be charged for fills and
 * write-backs. Used for L1I, L1D, and the per-core unified L2.
 */

#ifndef INDRA_MEM_CACHE_HH
#define INDRA_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::mem
{

/** What a single cache access did. */
struct CacheResult
{
    bool hit = false;
    /** A dirty victim was evicted and must be written back. */
    bool writeback = false;
    /** Line address of the evicted dirty victim (valid iff writeback). */
    Addr victimAddr = invalidAddr;
    /** The access allocated a new line (it was a miss). */
    bool filled = false;
};

/**
 * One cache level. Addresses are line-aligned internally; callers pass
 * byte addresses.
 */
class Cache
{
  public:
    Cache(const CacheConfig &cfg, stats::StatGroup &parent);

    /**
     * The mutable state one access touches outside the line array:
     * the LRU clock and the counter increments not yet folded into
     * the stats. The member access() runs the rule over a fresh Hot;
     * MemHierarchy::pageTransfer keeps one Hot in registers across a
     * whole page of lines and commits it once.
     */
    struct Hot
    {
        std::uint64_t useClock = 0;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t writebacks = 0;
    };

    /** The current clock, with no pending counter increments. */
    Hot hot() const { return Hot{useClock}; }

    /** Fold @p h's clock and counter increments back into the cache. */
    void
    commit(const Hot &h)
    {
        useClock = h.useClock;
        statAccesses += static_cast<double>(h.accesses);
        if (h.misses)
            statMisses += static_cast<double>(h.misses);
        if (h.writebacks)
            statWritebacks += static_cast<double>(h.writebacks);
    }

    /**
     * Access the cache at @p addr.
     * @param addr byte address
     * @param is_write marks the line dirty on hit/fill (write-back)
     * @return hit/miss plus any dirty victim information
     */
    CacheResult
    access(Addr addr, bool is_write)
    {
        Hot h = hot();
        CacheResult result = access(h, addr, is_write);
        commit(h);
        return result;
    }

    /**
     * The access rule: access(Addr, bool) over the caller's @p h.
     * The line array is updated in place; the clock and counters
     * move in @p h until commit().
     */
    CacheResult
    access(Hot &h, Addr addr, bool is_write)
    {
        ++h.accesses;
        CacheResult result;
        std::uint64_t set = setIndex(addr);
        Addr tag = tagOf(addr);
        Line *base = &lines[set * ways];

        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = ++h.useClock;
                if (is_write && config.writeBack)
                    line.dirty = true;
                result.hit = true;
                return result;
            }
        }

        // Miss: pick an invalid way if one exists, otherwise the LRU way.
        ++h.misses;
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = base[w];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (!victim || line.lastUse < victim->lastUse)
                victim = &line;
        }
        if (victim->valid && victim->dirty) {
            result.writeback = true;
            result.victimAddr = lineAddr(victim->tag, set);
            ++h.writebacks;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->dirty = is_write && config.writeBack;
        victim->lastUse = ++h.useClock;
        result.filled = true;
        return result;
    }

    /**
     * Probe without side effects.
     * @return true if the line holding @p addr is present.
     */
    bool contains(Addr addr) const;

    /** Invalidate the whole cache (context switch, recovery). */
    void invalidateAll();

    /**
     * Invalidate one line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidateLine(Addr addr);

    std::uint32_t lineBytes() const { return config.lineBytes; }
    const CacheConfig &params() const { return config; }

    std::uint64_t accesses() const;
    std::uint64_t misses() const;
    double missRate() const;
    std::uint64_t writebacks() const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift) & (numSets - 1);
    }

    Addr tagOf(Addr addr) const { return addr >> lineShift >> setShift; }

    Addr
    lineAddr(Addr tag, std::uint64_t set) const
    {
        return ((tag << setShift) | set) << lineShift;
    }

    CacheConfig config;
    std::uint64_t numSets;
    std::uint32_t ways;
    unsigned lineShift;
    unsigned setShift;  //!< floorLog2(numSets), fixed at construction
    std::vector<Line> lines;  //!< numSets * ways, set-major
    std::uint64_t useClock = 0;

    stats::StatGroup statGroup;
    stats::Scalar statAccesses;
    stats::Scalar statMisses;
    stats::Scalar statWritebacks;
    stats::Formula statMissRate;
};

} // namespace indra::mem

#endif // INDRA_MEM_CACHE_HH
