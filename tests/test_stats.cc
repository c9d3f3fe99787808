/** @file Tests for the statistics package. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

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
// response-time distributions) and reported 0; Welford's algorithm
// keeps full precision.
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

// A constant stream has zero variance *exactly*: the first sample
// makes runMean == v, every later delta contribution is a clean 0,
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

// The variance clamp: m2 is provably nonnegative under IEEE
// round-to-nearest (each increment multiplies two same-sign factors),
// but the clamp keeps stddev() NaN-free even against adversarial
// large-mean/tiny-spread streams at the limit of double precision.
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
