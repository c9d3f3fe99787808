/** @file Tests for the deterministic PCG32 generator and the
 * precomputed draw types, which must give exactly the draws and the
 * results of the per-call formulas they replace. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/random.hh"

using namespace indra;

namespace
{

// The per-call formulas the draw types replace, kept verbatim as the
// references the draw types are compared with, stream for stream.

std::uint32_t
referenceGeometric(Pcg32 &rng, double p)
{
    if (p == 1.0)
        return 0;
    double u = rng.uniformReal();
    // Guard against log(0).
    if (u <= 0.0)
        u = 1e-12;
    return static_cast<std::uint32_t>(std::log(u) / std::log(1.0 - p));
}

std::uint32_t
referenceZipf(Pcg32 &rng, std::uint32_t n, double s)
{
    if (n == 1)
        return 0;
    auto h = [s](double x) {
        if (std::abs(s - 1.0) < 1e-9)
            return std::log(x);
        return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
    };
    auto hInv = [s](double y) {
        if (std::abs(s - 1.0) < 1e-9)
            return std::exp(y);
        return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
    };
    double hx0 = h(0.5) - 1.0;
    double hn = h(n + 0.5);
    for (;;) {
        double u = hx0 + rng.uniformReal() * (hn - hx0);
        double x = hInv(u);
        std::uint32_t k = static_cast<std::uint32_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double acceptance = std::pow(static_cast<double>(k), -s);
        double bound = h(k + 0.5) - h(k - 0.5);
        if (rng.uniformReal() * bound <= acceptance)
            return k - 1;
    }
}

/** After equal-result draws, both streams must also be in step. */
void
expectInStep(Pcg32 &a, Pcg32 &b)
{
    EXPECT_EQ(a.next(), b.next()) << "draw counts diverged";
}

constexpr int equivalenceDraws = 1'000'000;

} // anonymous namespace

TEST(Pcg32, DeterministicFromSeed)
{
    Pcg32 a(123, 9);
    Pcg32 b(123, 9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(1, 10), b(1, 11);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Pcg32, BoundedStaysInBounds)
{
    Pcg32 rng(5);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1u << 20}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Pcg32, BoundedOneAlwaysZero)
{
    Pcg32 rng(5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Pcg32, UniformInclusiveRange)
{
    Pcg32 rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t v = rng.uniform(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(Pcg32, UniformDegenerateRange)
{
    Pcg32 rng(11);
    EXPECT_EQ(rng.uniform(42, 42), 42u);
}

// Regression: for spans wider than 2^32 uniform() used a bare
// `r % span`, which for span = 3 * 2^62 draws the bottom quarter of
// the range twice as often as everything else (2^64 = span + 2^62,
// so residues below 2^62 have two preimages). With Lemire-style
// rejection every third of the span is hit equally often.
TEST(Pcg32, UniformWideSpanUnbiased)
{
    Pcg32 rng(29);
    const std::uint64_t third = 1ULL << 62;
    const std::uint64_t hi = 3 * third - 1;
    const int n = 3000;
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < n; ++i) {
        std::uint64_t v = rng.uniform(0, hi);
        ASSERT_LE(v, hi);
        ++counts[v / third];
    }
    // The modulo-biased draw put ~50% of the mass in the first third;
    // an unbiased draw puts ~33.3% in each.
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 3.0, 0.05);
}

TEST(Pcg32, UniformWideSpanCoversWholeRange)
{
    Pcg32 rng(31);
    const std::uint64_t lo = 1ULL << 33;
    const std::uint64_t hi = lo + (1ULL << 34);
    bool sawUpperHalf = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.uniform(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
        if (v > lo + (hi - lo) / 2)
            sawUpperHalf = true;
    }
    EXPECT_TRUE(sawUpperHalf);
}

TEST(Pcg32, Next64IsTwoSequencedDraws)
{
    Pcg32 a(7, 3), b(7, 3);
    std::uint64_t high = b.next();
    std::uint64_t low = b.next();
    EXPECT_EQ(a.next64(), (high << 32) | low);
}

TEST(Pcg32, UniformRealInHalfOpenUnit)
{
    Pcg32 rng(3);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Pcg32, BernoulliExtremes)
{
    Pcg32 rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Pcg32, BernoulliFrequencyNearP)
{
    Pcg32 rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3))
            ++hits;
    }
    double freq = static_cast<double>(hits) / n;
    EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(Pcg32, GeometricMeanNearExpectation)
{
    Pcg32 rng(19);
    double sum = 0;
    const int n = 20000;
    const double p = 0.25;
    GeometricDraw geometric(p);
    for (int i = 0; i < n; ++i)
        sum += geometric.draw(rng);
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.2);
}

TEST(Pcg32, GeometricOneIsZero)
{
    Pcg32 rng(19), untouched(19);
    GeometricDraw certain(1.0);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(certain.draw(rng), 0u);
    expectInStep(rng, untouched);
}

TEST(Pcg32, ZipfInRange)
{
    Pcg32 rng(23);
    ZipfTable zipf(40, 1.1);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(zipf.draw(rng), 40u);
}

TEST(Pcg32, ZipfSkewsTowardZero)
{
    Pcg32 rng(23);
    ZipfTable zipf(100, 1.2);
    int low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        std::uint32_t v = zipf.draw(rng);
        if (v < 10)
            ++low;
        if (v >= 90)
            ++high;
    }
    EXPECT_GT(low, high * 4);
}

TEST(Pcg32, ZipfSingleton)
{
    Pcg32 rng(23), untouched(23);
    ZipfTable zipf(1, 1.0);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(zipf.draw(rng), 0u);
    expectInStep(rng, untouched);
}

TEST(Pcg32, ForkIsIndependent)
{
    Pcg32 parent(31);
    Pcg32 child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next() == child.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Pcg32, ForkDeterministic)
{
    Pcg32 p1(31), p2(31);
    Pcg32 c1 = p1.fork();
    Pcg32 c2 = p2.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c1.next(), c2.next());
}

// ------------------------------------------------------ draw types

TEST(DrawPlan, ChanceEqualsBernoulli)
{
    const double ps[] = {0.0,   std::ldexp(1.0, -33), 1e-9, 0.012, 0.5,
                         1.0 - std::ldexp(1.0, -33), 1.0};
    for (double p : ps) {
        // The threshold splits the 32-bit words exactly where the
        // double compare does...
        std::uint64_t t = Chance::belowThreshold(p);
        if (t > 0) {
            EXPECT_LT((t - 1) * std::ldexp(1.0, -32), p) << p;
        }
        if (t < (std::uint64_t{1} << 32)) {
            EXPECT_GE(t * std::ldexp(1.0, -32), p) << p;
        }
        // ...and the draws match stream for stream.
        Chance chance(p);
        Pcg32 a(41, 7), b(41, 7);
        int mismatches = 0;
        for (int i = 0; i < equivalenceDraws; ++i)
            mismatches += chance.draw(a) != b.bernoulli(p);
        EXPECT_EQ(mismatches, 0) << p;
        expectInStep(a, b);
    }
}

TEST(DrawPlan, BoundedDrawEqualsNextBounded)
{
    const std::uint32_t bounds[] = {1,  2,   3,   15,
                                    64, 192, (1u << 31) + 1, 0xffffffffu};
    for (std::uint32_t bound : bounds) {
        BoundedDraw draw(bound);
        EXPECT_EQ(draw.range(), bound);
        Pcg32 a(43, bound), b(43, bound);
        int mismatches = 0;
        for (int i = 0; i < equivalenceDraws; ++i)
            mismatches += draw.draw(a) != b.nextBounded(bound);
        EXPECT_EQ(mismatches, 0) << bound;
        expectInStep(a, b);
        // The reciprocal modulo at the numerators where it could slip.
        for (std::uint32_t r : {0u, 1u, bound - 1, bound, bound + 1,
                                0x7fffffffu, 0x80000000u, 0xfffffffeu,
                                0xffffffffu})
            EXPECT_EQ(draw.mod(r), r % bound) << bound << ' ' << r;
    }
}

TEST(DrawPlan, GeometricDrawEqualsReference)
{
    for (double p : {0.25, 1.0 / 2.4, 1.0 / 1.9, 0.999, 1.0}) {
        GeometricDraw geometric(p);
        Pcg32 a(47, 3), b(47, 3);
        int mismatches = 0;
        for (int i = 0; i < equivalenceDraws; ++i)
            mismatches += geometric.draw(a) != referenceGeometric(b, p);
        EXPECT_EQ(mismatches, 0) << p;
        expectInStep(a, b);
    }
}

TEST(DrawPlan, ZipfTableEqualsReference)
{
    // The daemons' hot-function and data-page shapes, the s == 1
    // branch, and the singleton.
    const std::pair<std::uint32_t, double> shapes[] = {
        {48, 1.1}, {640, 0.8}, {384, 0.6}, {50, 1.0}, {1, 1.0}};
    for (auto [n, s] : shapes) {
        ZipfTable zipf(n, s);
        Pcg32 a(53, n), b(53, n);
        int mismatches = 0;
        for (int i = 0; i < equivalenceDraws; ++i)
            mismatches += zipf.draw(a) != referenceZipf(b, n, s);
        EXPECT_EQ(mismatches, 0) << n << ' ' << s;
        expectInStep(a, b);
    }
}

TEST(DrawPlan, RatioChanceEqualsDoubleBernoulli)
{
    Pcg32 a(59, 1), b(59, 1);
    int mismatches = 0;
    int splitMismatches = 0;
    for (std::uint64_t events = 1; events <= 32; ++events) {
        for (std::uint64_t budget = 1; budget <= 50000; ++budget) {
            const double p = static_cast<double>(events) /
                static_cast<double>(budget);
            mismatches += ratioChance(a, events, budget) != b.bernoulli(p);
            // Both tests are monotone in the drawn word, so agreeing on
            // the two words around the integer split proves them equal
            // for every word.
            if (events < budget) {
                std::uint64_t split =
                    ((events << 32) + budget - 1) / budget;
                splitMismatches +=
                    !((split - 1) * std::ldexp(1.0, -32) < p) ||
                    split * std::ldexp(1.0, -32) < p;
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(splitMismatches, 0);
    expectInStep(a, b);
}
