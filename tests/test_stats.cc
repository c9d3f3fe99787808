/** @file Tests for the statistics package. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stat_sinks.hh"
#include "sim/stats.hh"

using namespace indra::stats;

namespace
{

/** Render @p root through the text sink, as the old dump() did. */
std::string
textDump(const StatGroup &root)
{
    std::ostringstream os;
    indra::obs::TextStatSink sink(os);
    root.accept(sink);
    return os.str();
}

} // anonymous namespace

TEST(Scalar, StartsAtZeroAndCounts)
{
    StatGroup g("g");
    Scalar s(g, "s", "desc");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Formula, ComputesOnDemand)
{
    StatGroup g("g");
    Scalar a(g, "a", "");
    Scalar b(g, "b", "");
    Formula f(g, "ratio", "", [&] {
        return b.value() > 0 ? a.value() / b.value() : 0.0;
    });
    EXPECT_EQ(f.value(), 0.0);
    a += 3;
    b += 4;
    EXPECT_DOUBLE_EQ(f.value(), 0.75);
}

TEST(Distribution, Moments)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 2.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 9.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
}

TEST(Distribution, EmptyIsSafe)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
    EXPECT_EQ(d.minValue(), 0.0);
}

TEST(Distribution, ResetClears)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    d.sample(10);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
}

// Regression: the old E[x^2] - E[x]^2 formula cancelled
// catastrophically for large-mean/small-variance samples (typical
// response-time distributions) and reported 0; sums shifted by the
// first sample keep full precision.
TEST(Distribution, StddevSurvivesLargeMean)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    const double mean = 1e9;
    for (double offset : {-1.0, 0.0, 1.0})
        d.sample(mean + offset);
    EXPECT_DOUBLE_EQ(d.mean(), mean);
    // Population stddev of {-1, 0, +1} around the mean.
    EXPECT_NEAR(d.stddev(), std::sqrt(2.0 / 3.0), 1e-9);
}

TEST(Distribution, StddevMatchesAfterReset)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    for (double v : {1e12 + 2, 1e12 + 4, 1e12 + 6})
        d.sample(v);
    d.reset();
    for (double v : {2.0, 4.0, 6.0})
        d.sample(v);
    EXPECT_NEAR(d.stddev(), std::sqrt(8.0 / 3.0), 1e-9);
}

// Edge cases of the moment accumulator: a single sample has no spread
// information, so variance and stddev must be exactly 0 (a
// sample-variance m2/(n-1) form divides 0/0 here and reports NaN).
TEST(Distribution, SingleSampleHasZeroSpread)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    d.sample(42.5);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 42.5);
    EXPECT_DOUBLE_EQ(d.minValue(), 42.5);
    EXPECT_DOUBLE_EQ(d.maxValue(), 42.5);
    EXPECT_EQ(d.variance(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));
}

// A constant stream has zero variance *exactly*: the first sample is
// the shift, so every later v - shift contribution is a clean 0,
// and the clamp guarantees sqrt never sees a negative residue. The
// naive E[x^2]-E[x]^2 form rounds this to a tiny negative for large
// magnitudes and poisons stddev with NaN.
TEST(Distribution, ConstantSamplesHaveExactlyZeroVariance)
{
    StatGroup g("g");
    for (double v : {1e-3, 3.0, 1e9 + 0.25, 1e15}) {
        std::string name = "d";
        name += std::to_string(v);
        Distribution d(g, name, "");
        for (int i = 0; i < 1000; ++i)
            d.sample(v);
        EXPECT_EQ(d.variance(), 0.0) << v;
        EXPECT_EQ(d.stddev(), 0.0) << v;
    }
}

// The variance clamp: s2 − s1²/n is nonnegative in exact arithmetic,
// but its two terms can round past each other, and the clamp keeps
// stddev() NaN-free even against adversarial large-mean/tiny-spread
// streams at the limit of double precision.
TEST(Distribution, StddevNeverNanUnderTinySpread)
{
    StatGroup g("g");
    Distribution d(g, "d", "");
    const double base = 1e15;
    const double ulp = std::nextafter(base, 2e15) - base;
    for (int i = 0; i < 257; ++i)
        d.sample(base + (i % 3 - 1) * ulp);
    EXPECT_GE(d.variance(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));
    EXPECT_GE(d.stddev(), 0.0);
}

namespace
{

using Moments = Distribution::Moments;

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Every field of @p got equals @p want's, bit for bit. */
void
expectSameMoments(const Moments &got, const Moments &want)
{
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(bits(got.total), bits(want.total));
    EXPECT_EQ(bits(got.lo), bits(want.lo));
    EXPECT_EQ(bits(got.hi), bits(want.hi));
    EXPECT_EQ(bits(got.shift), bits(want.shift));
    EXPECT_EQ(bits(got.s1), bits(want.s1));
    EXPECT_EQ(bits(got.s2), bits(want.s2));
}

} // anonymous namespace

// Moments::sampleRepeat stands for a loop of sample() calls over a
// repeating run of integer values (the extrapolated DRAM fill chain):
// every field must come out bit for bit as the loop leaves it, both
// where the closed form applies and where a sum leaves the 2^53 bound
// or the state is not integral and the loop runs instead.
TEST(Distribution, SampleRepeatEqualsPerSampleLoop)
{
    enum class Path
    {
        Closed,     //!< the closed form applies and equals the loop
        PastBound,  //!< a sum passes 2^53, where a closed form differs
        Fraction,   //!< the state is not integral
    };
    struct Case
    {
        const char *what;
        Moments start;
        std::vector<std::uint64_t> run;
        std::uint64_t reps;
        Path path;
    };
    Moments warm;
    for (double v : {300.0, 180.0, 250.0})
        warm.sample(v);
    Moments big;
    big.sample(9007199254740000.0);  // total just below 2^53
    Moments wide;
    wide.sample(0.0);  // shift 0: the run's squares pass 2^53
    Moments fractional;
    fractional.sample(0.5);  // a non-integral shift and total
    const Case cases[] = {
        {"from n = 0, one value", Moments{}, {140}, 7, Path::Closed},
        {"from n = 0, a pair", Moments{}, {140, 380}, 5, Path::Closed},
        {"pair below lo", warm, {120, 130}, 9, Path::Closed},
        {"pair above hi", warm, {400, 390}, 9, Path::Closed},
        {"pair moving lo and hi", warm, {100, 500}, 3, Path::Closed},
        {"pair inside", warm, {200, 260}, 11, Path::Closed},
        {"one repetition", warm, {170, 310}, 1, Path::Closed},
        {"no repetition", warm, {170, 310}, 0, Path::Closed},
        {"total near 2^53", big, {523, 1}, 64, Path::PastBound},
        {"s2 past 2^53", wide, {95000001, 3}, 9, Path::PastBound},
        {"fractional start", fractional, {140, 380}, 6, Path::Fraction},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        Moments looped = c.start;
        for (std::uint64_t r = 0; r < c.reps; ++r) {
            for (std::uint64_t v : c.run)
                looped.sample(static_cast<double>(v));
        }
        Moments repeated = c.start;
        repeated.sampleRepeat(c.run.data(), c.run.size(), c.reps);
        expectSameMoments(repeated, looped);

        // Where a sum passes 2^53 the loop rounds, and a closed form
        // taken there would differ from it.
        if (c.reps < 2 || c.path == Path::Fraction)
            continue;
        Moments once = c.start;
        once.sampleRepeat(c.run.data(), c.run.size(), 1);
        double pass_total = 0, pass_s2 = 0;
        for (std::uint64_t v : c.run) {
            const double d = static_cast<double>(v) - once.shift;
            pass_total += static_cast<double>(v);
            pass_s2 += d * d;
        }
        const double more = static_cast<double>(c.reps - 1);
        const bool closed_equal =
            bits(once.total + more * pass_total) == bits(looped.total) &&
            bits(once.s2 + more * pass_s2) == bits(looped.s2);
        EXPECT_EQ(closed_equal, c.path == Path::Closed);
    }
}

namespace
{

/** Exact sums of an integer stream in 128 bits: the reference. */
struct ExactSums
{
    std::uint64_t n = 0;
    __int128 shift = 0;
    __int128 total = 0;
    __int128 s1 = 0;
    __int128 s2 = 0;

    void
    sample(std::uint64_t v)
    {
        const __int128 x = v;
        if (n == 0)
            shift = x;
        ++n;
        total += x;
        s1 += x - shift;
        s2 += (x - shift) * (x - shift);
    }

    /** The population variance, (n·s2 − s1²) / n², from exact sums. */
    long double
    variance() const
    {
        const __int128 num = static_cast<__int128>(n) * s2 - s1 * s1;
        const long double nn = static_cast<long double>(n);
        return static_cast<long double>(num) / (nn * nn);
    }
};

/** Values in [lo, lo + span) drawn from a fixed-seed engine. */
class IntStream
{
  public:
    IntStream(std::uint64_t seed, std::uint64_t lo, std::uint64_t span)
        : rng(seed), lo(lo), span(span)
    {
    }

    std::uint64_t next() { return lo + rng() % span; }

  private:
    std::mt19937_64 rng;
    std::uint64_t lo;
    std::uint64_t span;
};

void
expectExact(Distribution &d, const ExactSums &ref)
{
    ASSERT_EQ(d.count(), ref.n);
    // Every exact sum is below 2^53, so each double must hold it.
    EXPECT_EQ(d.sum(), static_cast<double>(ref.total));
    EXPECT_EQ(d.moments().s1, static_cast<double>(ref.s1));
    EXPECT_EQ(d.moments().s2, static_cast<double>(ref.s2));
    const long double var = ref.variance();
    EXPECT_NEAR(static_cast<long double>(d.variance()), var,
                var * 1e-12L);
}

} // anonymous namespace

// The shifted sums of an integer stream are exact integers: a
// DRAM-like latency stream (sampled one by one and in repeating runs,
// as the page-transfer kernel does), an occupancy-like stream and a
// response-time-like stream with a 1e9-cycle mean all equal a 128-bit
// integer reference, and the variance derived from them is within
// 1e-12 of the exact one.
TEST(Distribution, ShiftedSumsAreExactOverIntegerStreams)
{
    struct StreamCase
    {
        const char *what;
        std::uint64_t lo;
        std::uint64_t span;
        int samples;
    };
    const StreamCase streams[] = {
        {"dram latency", 96, 520, 200000},
        {"fifo occupancy", 0, 65, 200000},
        {"response time", 1000000000, 40000, 20000},
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (const StreamCase &s : streams) {
            SCOPED_TRACE(s.what);
            SCOPED_TRACE(seed);
            StatGroup g("g");
            Distribution d(g, "d", "");
            ExactSums ref;
            IntStream in(seed, s.lo, s.span);
            for (int i = 0; i < s.samples; ++i) {
                const std::uint64_t v = in.next();
                d.sample(static_cast<double>(v));
                ref.sample(v);
            }
            expectExact(d, ref);
        }

        // Fill-chain shape: a few single samples, then a run of one
        // or two latencies repeated up to a page's worth of lines.
        StatGroup g("g");
        Distribution d(g, "d", "");
        ExactSums ref;
        IntStream in(seed, 96, 520);
        for (int page = 0; page < 5000; ++page) {
            for (int i = 0; i < 3; ++i) {
                const std::uint64_t v = in.next();
                d.sample(static_cast<double>(v));
                ref.sample(v);
            }
            const std::uint64_t run[2] = {in.next(), in.next()};
            const std::size_t k = 1 + in.next() % 2;
            const std::uint64_t reps = in.next() % 64;
            d.moments().sampleRepeat(run, k, reps);
            for (std::uint64_t r = 0; r < reps; ++r) {
                for (std::size_t i = 0; i < k; ++i)
                    ref.sample(run[i]);
            }
        }
        expectExact(d, ref);
    }
}

// Inside the bound a repeating run costs one step, however long: a
// trillion passes (which a per-sample loop could not finish) come out
// as the exact integer sums.
TEST(Distribution, SampleRepeatChargesLongRunsInClosedForm)
{
    Moments m;
    const std::uint64_t run[2] = {140, 141};
    const std::uint64_t reps = 1000000000000ull;
    m.sampleRepeat(run, 2, reps);
    EXPECT_EQ(m.n, 2 * reps);
    EXPECT_EQ(m.total, 281.0 * static_cast<double>(reps));
    EXPECT_EQ(m.s1, static_cast<double>(reps));
    EXPECT_EQ(m.s2, static_cast<double>(reps));
    EXPECT_EQ(m.lo, 140.0);
    EXPECT_EQ(m.hi, 141.0);
}

namespace
{

/**
 * The former moment update, kept as a reference: Welford's running
 * mean and sum of squared deviations, one divide per sample.
 */
struct WelfordReference
{
    std::uint64_t n = 0;
    double runMean = 0;
    double m2 = 0;

    void
    sample(double v)
    {
        ++n;
        const double delta = v - runMean;
        runMean += delta / static_cast<double>(n);
        m2 += delta * (v - runMean);
    }

    double
    stddev() const
    {
        if (n < 2)
            return 0.0;
        const double var = m2 / static_cast<double>(n);
        return var > 0 ? std::sqrt(var) : 0.0;
    }
};

} // anonymous namespace

// The shifted sums and the former Welford update agree on every
// stream kind the simulator samples, integer and fractional, to 1e-12
// relative, so the change of algorithm can move a 12-digit stddev by
// at most its last digit. Where they part further, on a
// 1e9-mean stream whose spread is 1e-5 of its mean, the shifted sums
// are the exact ones and Welford's running mean is what drifts.
TEST(Distribution, StddevAgreesWithWelfordReference)
{
    struct StreamCase
    {
        const char *what;
        std::function<double(std::mt19937_64 &)> draw;
        int samples;
    };
    const StreamCase streams[] = {
        {"dram latency",
         [](std::mt19937_64 &r) { return 96.0 + double(r() % 520); },
         200000},
        {"fifo occupancy",
         [](std::mt19937_64 &r) { return double(r() % 65); }, 200000},
        {"response time",
         [](std::mt19937_64 &r) {
             return 200000.0 + double(r() % 30000000);
         },
         20000},
        {"dirty line ratio",
         [](std::mt19937_64 &r) {
             // Lines backed up over a request's pages * 64 lines.
             const std::uint64_t lines = 64 * (1 + r() % 40);
             return double(r() % (lines + 1)) / double(lines);
         },
         50000},
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (const StreamCase &s : streams) {
            SCOPED_TRACE(s.what);
            SCOPED_TRACE(seed);
            std::mt19937_64 rng(seed);
            StatGroup g("g");
            Distribution d(g, "d", "");
            WelfordReference ref;
            for (int i = 0; i < s.samples; ++i) {
                const double v = s.draw(rng);
                d.sample(v);
                ref.sample(v);
            }
            ASSERT_GT(ref.stddev(), 0.0);
            EXPECT_NEAR(d.stddev(), ref.stddev(), ref.stddev() * 1e-12);
        }

        SCOPED_TRACE(seed);
        StatGroup g("g");
        Distribution d(g, "d", "");
        WelfordReference welford;
        ExactSums exact;
        IntStream in(seed, 1000000000, 40000);
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t v = in.next();
            d.sample(static_cast<double>(v));
            welford.sample(static_cast<double>(v));
            exact.sample(v);
        }
        const long double truth = std::sqrt(exact.variance());
        EXPECT_LE(std::fabs(d.stddev() - truth),
                  std::fabs(welford.stddev() - truth));
    }
}

TEST(Histogram, BucketsAndOverflow)
{
    StatGroup g("g");
    Histogram h(g, "h", "", 10.0, 4);
    h.sample(0);
    h.sample(9.99);
    h.sample(10);
    h.sample(35);
    h.sample(40);   // overflow
    h.sample(1000); // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

// Regression: negative samples used to be conflated with the
// [0, width) bucket, inflating it; they now land in a dedicated
// underflow counter, mirroring the overflow side.
TEST(Histogram, NegativeGoesToUnderflow)
{
    StatGroup g("g");
    Histogram h(g, "h", "", 1.0, 2);
    h.sample(-5);
    h.sample(-0.001);
    h.sample(0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
}

// Bucket-boundary determinism: buckets are right-open [i*w, (i+1)*w),
// so a sample landing exactly on an edge always counts in the bucket
// whose interval *starts* there, and the last edge (bins * width) is
// the first overflow value. This pins the documented tie side — an
// implementation that rounds or uses <= on the edge double-counts or
// shifts edge samples between buckets nondeterministically.
TEST(Histogram, EdgeSamplesBucketDeterministically)
{
    StatGroup g("g");
    Histogram h(g, "h", "", 10.0, 4);
    for (int edge = 0; edge < 4; ++edge)
        h.sample(edge * 10.0); // start of bucket `edge`
    h.sample(40.0);            // the last edge: first overflow value
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 0u);
}

// Values at or beyond the last edge must never reach the size_t cast:
// casting a double >= 2^64 (or NaN) to an integer is undefined
// behavior, not merely a wrong bucket. Pre-fix code compared
// `q < bins.size()` after the cast (or not at all) and tripped UBSan
// on huge and NaN samples; the negated comparison routes both to
// overflow before any cast happens.
TEST(Histogram, HugeAndNanSamplesRouteToOverflow)
{
    StatGroup g("g");
    Histogram h(g, "h", "", 1.0, 8);
    h.sample(1e300);
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(9e18); // > 2^63: the cast itself would be UB
    EXPECT_EQ(h.overflow(), 4u);
    EXPECT_EQ(h.count(), 4u);
}

// Accounting reconciliation: every sample lands in exactly one of
// underflow, a bucket, or overflow, so the three always sum to
// count() — the invariant the perf-gate schema check leans on.
TEST(Histogram, UnderOverAndBucketsReconcileWithCount)
{
    StatGroup g("g");
    Histogram h(g, "h", "", 2.5, 6);
    const double vals[] = {-3, -0.0001, 0, 2.5, 2.4999, 7.5, 14.9999,
                           15, 100, 1e300, 3.3, 12.0, -7};
    for (double v : vals)
        h.sample(v);
    std::uint64_t in_bins = 0;
    for (std::uint64_t b : h.buckets())
        in_bins += b;
    EXPECT_EQ(h.underflow() + in_bins + h.overflow(), h.count());
    EXPECT_EQ(h.count(), sizeof(vals) / sizeof(vals[0]));
}

// sampleN(v, k) is defined as exactly k sample(v) calls: integral
// counters batch losslessly, including on the underflow, overflow,
// NaN, and edge paths.
TEST(Histogram, SampleNMatchesRepeatedSample)
{
    StatGroup g("g");
    Histogram a(g, "a", "", 4.0, 4);
    Histogram b(g, "b", "", 4.0, 4);
    const double probes[] = {-2.0, 0.0, 3.9999, 4.0, 15.9999, 16.0,
                             1e300,
                             std::numeric_limits<double>::quiet_NaN()};
    for (double v : probes) {
        for (int i = 0; i < 7; ++i)
            a.sample(v);
        b.sampleN(v, 7);
    }
    b.sampleN(1.0, 0); // k == 0 is a no-op
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.buckets(), b.buckets());
}

TEST(Histogram, UnderflowAppearsInDump)
{
    StatGroup g("g");
    Histogram h(g, "h", "", 1.0, 2);
    h.sample(-1);
    EXPECT_NE(textDump(g).find("h.underflow"), std::string::npos);
}

TEST(StatGroup, FindAndFindPath)
{
    StatGroup root("root");
    StatGroup child(root, "child");
    Scalar s(child, "x", "");
    s += 2;
    EXPECT_EQ(root.find("x"), nullptr);
    ASSERT_NE(root.findPath("child.x"), nullptr);
    EXPECT_EQ(root.findPath("child.x")->name(), "x");
    EXPECT_EQ(root.findPath("child.missing"), nullptr);
    EXPECT_EQ(root.findPath("nope.x"), nullptr);
}

TEST(StatGroup, DumpContainsQualifiedNames)
{
    StatGroup root("sys");
    StatGroup child(root, "l1");
    Scalar s(child, "misses", "cache misses");
    s += 7;
    std::string dump = textDump(root);
    EXPECT_NE(dump.find("sys.l1.misses"), std::string::npos);
    EXPECT_NE(dump.find("7"), std::string::npos);
}

TEST(StatGroup, ResetAllRecurses)
{
    StatGroup root("root");
    StatGroup child(root, "c");
    Scalar a(root, "a", "");
    Scalar b(child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0.0);
    EXPECT_EQ(b.value(), 0.0);
}

TEST(StatGroup, ChildUnregistersOnDestruction)
{
    StatGroup root("root");
    {
        StatGroup child(root, "tmp");
        Scalar s(child, "x", "");
    }
    EXPECT_EQ(textDump(root).find("tmp"), std::string::npos);
}

TEST(StatGroup, DuplicateStatNamePanics)
{
    StatGroup g("g");
    Scalar a(g, "dup", "");
    EXPECT_DEATH({ Scalar b(g, "dup", ""); }, "duplicate stat");
}
