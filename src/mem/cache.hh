/**
 * @file
 * A set-associative cache timing model with true-LRU replacement and
 * write-back dirty-line tracking. Each set keeps its ways in recency
 * order, so LRU needs no timestamps.
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
     * The counter increments one access makes, not yet folded into the
     * stats. The member access() runs the rule over a fresh Hot;
     * MemHierarchy::pageTransfer keeps one Hot in registers across a
     * whole page of lines and commits it once.
     */
    struct Hot
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t writebacks = 0;
    };

    /** Fold @p h's counter increments into the stats. */
    void
    commit(const Hot &h)
    {
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
        Hot h;
        CacheResult result = access(h, addr, is_write);
        commit(h);
        return result;
    }

    /**
     * The access rule: access(Addr, bool) over the caller's @p h.
     * The ways are updated in place; the counters move in @p h until
     * commit().
     */
    CacheResult
    access(Hot &h, Addr addr, bool is_write)
    {
        return accessSet(h, setIndex(addr), tagOf(addr), is_write);
    }

    /**
     * Access the @p n lines from @p base, one per set, as one decision
     * when their sets hold the same ways: then every line gets the
     * same outcome as @p first, except that line i's victim address is
     * first.victimAddr + i * lineBytes(). The sets are updated and
     * @p h moves by @p n per counter that moved.
     * The @p n lines must fall in n consecutive sets (one tag).
     * @return false, changing nothing, when any set differs from the
     *         first
     */
    bool accessRun(Hot &h, Addr base, std::uint32_t n, bool is_write,
                   CacheResult &first);

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

    std::uint64_t accesses() const;
    std::uint64_t misses() const;
    double missRate() const;
    std::uint64_t writebacks() const;

  private:
    /**
     * One way: the tag above a dirty and a valid bit. An invalid way
     * is exactly 0. A set's valid ways come first, most recently used
     * first, and its invalid ways after them, so the LRU victim (or an
     * invalid way, when one exists) is always the last way.
     */
    using Way = std::uint64_t;
    static constexpr Way validBit = 1;
    static constexpr Way dirtyBit = 2;
    static constexpr unsigned tagShift = 2;

    /** Move way @p i of @p set to the front as @p word. */
    static void
    toFront(Way *set, std::uint32_t i, Way word)
    {
        for (; i > 0; --i)
            set[i] = set[i - 1];
        set[0] = word;
    }

    /** The access rule on set @p set for @p tag. */
    CacheResult
    accessSet(Hot &h, std::uint64_t set, Addr tag, bool is_write)
    {
        ++h.accesses;
        CacheResult result;
        Way *base = &words[set * ways];
        const Way key = tag << tagShift | validBit;
        const Way dirty = is_write && config.writeBack ? dirtyBit : 0;

        for (std::uint32_t w = 0; w < ways; ++w) {
            if ((base[w] & ~dirtyBit) == key) {
                toFront(base, w, base[w] | dirty);
                result.hit = true;
                return result;
            }
        }

        // Miss: the last way is invalid or the LRU line.
        ++h.misses;
        const Way victim = base[ways - 1];
        if ((victim & (validBit | dirtyBit)) == (validBit | dirtyBit)) {
            result.writeback = true;
            result.victimAddr = lineAddr(victim >> tagShift, set);
            ++h.writebacks;
        }
        toFront(base, ways - 1, key | dirty);
        result.filled = true;
        return result;
    }

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
    std::vector<Way> words;  //!< numSets * ways, set-major

    stats::StatGroup statGroup;
    stats::Scalar statAccesses;
    stats::Scalar statMisses;
    stats::Scalar statWritebacks;
    stats::Formula statMissRate;
};

} // namespace indra::mem

#endif // INDRA_MEM_CACHE_HH
