#include "mem/cache.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace indra::mem
{

Cache::Cache(const CacheConfig &cfg, stats::StatGroup &parent)
    : config(cfg), numSets(cfg.numSets()), ways(cfg.associativity),
      lineShift(floorLog2(cfg.lineBytes)),
      setShift(floorLog2(cfg.numSets())),
      words(numSets * ways, 0),
      statGroup(parent, cfg.name),
      statAccesses(statGroup, "accesses", "total accesses"),
      statMisses(statGroup, "misses", "misses"),
      statWritebacks(statGroup, "writebacks", "dirty victims evicted"),
      statMissRate(statGroup, "miss_rate", "misses / accesses",
                   [this] {
                       double a = statAccesses.value();
                       return a > 0 ? statMisses.value() / a : 0.0;
                   })
{
    panic_if(!isPowerOf2(numSets), "cache set count must be a power of 2");
    // A way keeps its tag above two flag bits, so the line offset and
    // set index must take at least that many address bits.
    panic_if(lineShift + setShift < tagShift,
             "cache line and set index span fewer than ", tagShift,
             " address bits");
}

bool
Cache::accessRun(Hot &h, Addr base, std::uint32_t n, bool is_write,
                 CacheResult &first)
{
    const std::uint64_t set = setIndex(base);
    panic_if(n == 0 || set + n > numSets,
             "cache run of ", n, " lines leaves the sets");
    // The sets are contiguous, so "every set equals the first" is
    // "every set equals the one before it": one overlapping compare.
    Way *run = &words[set * ways];
    const std::size_t tail = static_cast<std::size_t>(n - 1) * ways;
    if (std::memcmp(run + ways, run, tail * sizeof(Way)) != 0)
        return false;

    // Every set holds the same ways, so the rule decides the same for
    // each: apply it once and copy the result across, doubling the
    // copied prefix each time, unless it was a hit on the front way
    // that left the set as it was.
    Hot one;
    const Way front = run[0];
    first = accessSet(one, set, tagOf(base), is_write);
    if (!first.hit || run[0] != front) {
        const std::size_t total = tail + ways;
        for (std::size_t have = ways; have < total;) {
            const std::size_t copy = std::min(have, total - have);
            std::memcpy(run + have, run, copy * sizeof(Way));
            have += copy;
        }
    }
    h.accesses += n;
    if (one.misses)
        h.misses += n;
    if (one.writebacks)
        h.writebacks += n;
    return true;
}

bool
Cache::contains(Addr addr) const
{
    std::uint64_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    const Way key = tag << tagShift | validBit;
    const Way *base = &words[set * ways];
    for (std::uint32_t w = 0; w < ways; ++w) {
        if ((base[w] & ~dirtyBit) == key)
            return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    std::fill(words.begin(), words.end(), 0);
}

bool
Cache::invalidateLine(Addr addr)
{
    std::uint64_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    const Way key = tag << tagShift | validBit;
    Way *base = &words[set * ways];
    for (std::uint32_t w = 0; w < ways; ++w) {
        if ((base[w] & ~dirtyBit) == key) {
            bool was_dirty = base[w] & dirtyBit;
            // Close the gap: the valid ways behind it keep their order.
            std::copy(base + w + 1, base + ways, base + w);
            base[ways - 1] = 0;
            return was_dirty;
        }
    }
    return false;
}

std::uint64_t
Cache::accesses() const
{
    return static_cast<std::uint64_t>(statAccesses.value());
}

std::uint64_t
Cache::misses() const
{
    return static_cast<std::uint64_t>(statMisses.value());
}

double
Cache::missRate() const
{
    return statMissRate.value();
}

std::uint64_t
Cache::writebacks() const
{
    return static_cast<std::uint64_t>(statWritebacks.value());
}

} // namespace indra::mem
