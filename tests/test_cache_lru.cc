/** @file Differential test of the cache's recency-ordered LRU against
 * a timestamp-LRU reference model: seeded random sequences of
 * accesses, probes, invalidations and page-style runs over 1- to
 * 8-way geometries, with write-back on and off. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace indra;
using mem::Cache;
using mem::CacheResult;

namespace
{

/**
 * The timestamp-LRU rule: every line carries the clock value of its
 * last use; a miss fills the first invalid way, otherwise the way
 * with the smallest timestamp.
 */
class TimestampLru
{
  public:
    explicit TimestampLru(const CacheConfig &cfg)
        : config(cfg), numSets(cfg.numSets()), ways(cfg.associativity),
          lineShift(floorLog2(cfg.lineBytes)),
          setShift(floorLog2(cfg.numSets())), lines(numSets * ways)
    {
    }

    CacheResult
    access(Addr addr, bool is_write)
    {
        ++accesses;
        CacheResult result;
        std::uint64_t set = setIndex(addr);
        Addr tag = tagOf(addr);
        Line *base = &lines[set * ways];

        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = ++useClock;
                if (is_write && config.writeBack)
                    line.dirty = true;
                result.hit = true;
                return result;
            }
        }

        ++misses;
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
            result.victimAddr = ((victim->tag << setShift) | set)
                << lineShift;
            ++writebacks;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->dirty = is_write && config.writeBack;
        victim->lastUse = ++useClock;
        result.filled = true;
        return result;
    }

    bool
    contains(Addr addr) const
    {
        const Line *base = &lines[setIndex(addr) * ways];
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].tag == tagOf(addr))
                return true;
        }
        return false;
    }

    void
    invalidateAll()
    {
        for (Line &line : lines) {
            line.valid = false;
            line.dirty = false;
        }
    }

    bool
    invalidateLine(Addr addr)
    {
        Line *base = &lines[setIndex(addr) * ways];
        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tagOf(addr)) {
                bool was_dirty = line.dirty;
                line.valid = false;
                line.dirty = false;
                return was_dirty;
            }
        }
        return false;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

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

    CacheConfig config;
    std::uint64_t numSets;
    std::uint32_t ways;
    unsigned lineShift;
    unsigned setShift;
    std::vector<Line> lines;
    std::uint64_t useClock = 0;
};

void
expectSame(const CacheResult &got, const CacheResult &want)
{
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.writeback, want.writeback);
    EXPECT_EQ(got.victimAddr, want.victimAddr);
    EXPECT_EQ(got.filled, want.filled);
}

struct Geometry
{
    std::uint32_t ways;
    bool writeBack;
};

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    return std::to_string(info.param.ways) + "way" +
           (info.param.writeBack ? "WriteBack" : "WriteThrough");
}

} // namespace

class CacheLruDifferential : public ::testing::TestWithParam<Geometry>
{
};

// Every CacheResult field, every contains/invalidateLine return and the
// three counters match the timestamp model, step by step.
TEST_P(CacheLruDifferential, MatchesTimestampModel)
{
    const Geometry geo = GetParam();
    const std::uint32_t line = 64;
    const std::uint32_t sets = 16;
    CacheConfig cfg{"c", sets * geo.ways * line, line, geo.ways, 1,
                    geo.writeBack};
    // Tags from a pool a little larger than the ways, so sets fill,
    // hit, evict and write back; runs use the first run_sets sets.
    const Addr tags = geo.ways + 2;
    const std::uint32_t run_sets = 8;

    std::uint64_t runs_taken = 0;
    std::uint64_t runs_refused = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        stats::StatGroup g("t");
        Cache cache(cfg, g);
        TimestampLru ref(cfg);
        Pcg32 rng(seed * 977 + geo.ways);

        auto lineAddr = [&](Addr tag, std::uint64_t set) {
            return (tag * sets + set) * line;
        };
        for (int step = 0; step < 4000; ++step) {
            Addr tag = rng.nextBounded(static_cast<std::uint32_t>(tags));
            std::uint64_t set = rng.nextBounded(sets);
            Addr addr = lineAddr(tag, set) + rng.nextBounded(line);
            bool write = rng.next() & 1;
            std::uint32_t op = rng.nextBounded(100);
            if (op < 70) {
                expectSame(cache.access(addr, write),
                           ref.access(addr, write));
            } else if (op < 80) {
                EXPECT_EQ(cache.contains(addr), ref.contains(addr));
            } else if (op < 90) {
                EXPECT_EQ(cache.invalidateLine(addr),
                          ref.invalidateLine(addr));
            } else if (op < 91) {
                cache.invalidateAll();
                ref.invalidateAll();
            } else {
                // A page-style run: one line in each of the first
                // run_sets sets, taken as one decision when they agree.
                Addr base = lineAddr(tag, 0);
                Cache::Hot h;
                CacheResult first;
                bool taken =
                    cache.accessRun(h, base, run_sets, write, first);
                cache.commit(h);
                for (std::uint32_t i = 0; i < run_sets; ++i) {
                    CacheResult want = ref.access(base + i * line, write);
                    if (!taken) {
                        expectSame(cache.access(base + i * line, write),
                                   want);
                        continue;
                    }
                    CacheResult got = first;
                    if (got.writeback)
                        got.victimAddr += i * line;
                    expectSame(got, want);
                }
                ++(taken ? runs_taken : runs_refused);
            }
            ASSERT_EQ(cache.accesses(), ref.accesses) << "step " << step;
            ASSERT_EQ(cache.misses(), ref.misses) << "step " << step;
            ASSERT_EQ(cache.writebacks(), ref.writebacks)
                << "step " << step;
        }
        // The end states hold the same lines.
        for (Addr tag = 0; tag < tags; ++tag) {
            for (std::uint64_t set = 0; set < sets; ++set)
                EXPECT_EQ(cache.contains(lineAddr(tag, set)),
                          ref.contains(lineAddr(tag, set)));
        }
    }
    // Both the one-decision run and its refusal were exercised.
    EXPECT_GT(runs_taken, 0u);
    EXPECT_GT(runs_refused, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLruDifferential,
    ::testing::Values(Geometry{1, true}, Geometry{1, false},
                      Geometry{2, true}, Geometry{2, false},
                      Geometry{4, true}, Geometry{4, false},
                      Geometry{8, true}, Geometry{8, false}),
    geometryName);
