/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in the simulator draws from a seeded PCG32
 * stream so that simulations are exactly reproducible. Never use
 * std::rand or hardware entropy inside simulation code.
 */

#ifndef INDRA_SIM_RANDOM_HH
#define INDRA_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace indra
{

/**
 * PCG32 (O'Neill's pcg32_random_r): small, fast, statistically strong,
 * and fully deterministic from (seed, stream).
 */
class Pcg32
{
  public:
    /** Construct a generator from a seed and an optional stream id. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    // The four draws below sit on the per-instruction hot path of the
    // workload generator (hundreds of millions of calls per storm), so
    // they are defined inline here rather than in random.cc.

    /** Next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Next raw 64-bit value (two draws, high word first). */
    std::uint64_t next64();

    /** Uniform integer in [0, bound); @p bound must be nonzero. */
    std::uint32_t
    nextBounded(std::uint32_t bound)
    {
        panic_if(bound == 0, "nextBounded(0)");
        // Lemire-style rejection to avoid modulo bias.
        std::uint32_t threshold = -bound % bound;
        for (;;) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal() { return next() * (1.0 / 4294967296.0); }

    /** Bernoulli trial: true with probability @p p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /** Fork a child generator with an independent stream. */
    Pcg32 fork();

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

// The draw types below fold everything a fixed-parameter draw can
// precompute into one value built once, so a hot draw is integer
// compares plus what truly depends on the random word. Each gives
// exactly the draws and the results of the per-call formula it
// replaces (tests/test_random.cc keeps those formulas as references).

/**
 * A Bernoulli trial of fixed probability p: the same draws and
 * results as Pcg32::bernoulli(p). uniformReal() is next() * 2^-32
 * exactly, so `uniformReal() < p` is `next() < ceil(p * 2^32)`; p <= 0
 * and p >= 1 decide without a draw, as bernoulli does.
 */
class Chance
{
  public:
    explicit Chance(double p)
    {
        if (p <= 0.0) {
            mode = Mode::Never;
        } else if (p >= 1.0) {
            mode = Mode::Always;
        } else {
            mode = Mode::Draw;
            below = belowThreshold(p);
        }
    }

    /**
     * The integer threshold t with `next() < t` == `uniformReal() < x`
     * for every draw: ceil(x * 2^32), clamped to [0, 2^32] (NaN: 0).
     */
    static std::uint64_t
    belowThreshold(double x)
    {
        if (!(x > 0.0))
            return 0;
        if (x >= 1.0)
            return std::uint64_t{1} << 32;
        return static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 32)));
    }

    bool
    draw(Pcg32 &rng) const
    {
        if (mode != Mode::Draw)
            return mode == Mode::Always;
        return rng.next() < below;
    }

  private:
    enum class Mode : std::uint8_t { Never, Always, Draw };
    Mode mode = Mode::Never;
    std::uint64_t below = 0;
};

/**
 * bernoulli(num / den) for integers 0 <= num < 2^21 and 0 < den < 2^53,
 * decided without floating point: the same draws and results.
 * num == 0 and num >= den decide without a draw (den < 2^53 keeps a
 * smaller quotient from rounding up to 1). Otherwise bernoulli tests
 * next() * 2^-32 < fl(num / den). For num < 2^21 the rounding error of
 * the quotient, at most num / den * 2^-53, is below 1 / (den * 2^32),
 * the least distance from num / den to any k * 2^-32 it does not equal;
 * so the rounded and the true quotient order every draw alike, and
 * the true one compares exactly as next() * den < num * 2^32.
 */
inline bool
ratioChance(Pcg32 &rng, std::uint64_t num, std::uint64_t den)
{
    if (num == 0)
        return false;
    if (num >= den)
        return true;
    return static_cast<unsigned __int128>(rng.next()) * den <
        static_cast<unsigned __int128>(num) << 32;
}

/**
 * A uniform integer in [0, bound) for a fixed bound: the same draws
 * and results as Pcg32::nextBounded(bound). The Lemire rejection
 * threshold is precomputed, and the modulo is a mask for powers of
 * two and Lemire's fastmod (a precomputed 64-bit reciprocal, exact
 * for every 32-bit numerator and divisor) otherwise.
 */
class BoundedDraw
{
  public:
    /** Empty range: draw() panics, as nextBounded(0) does. */
    BoundedDraw() = default;

    explicit BoundedDraw(std::uint32_t b)
        : bound(b), threshold(b ? -b % b : 0),
          mask((b & (b - 1)) == 0 ? b - 1 : 0),
          reciprocal(b > 1 && (b & (b - 1)) != 0
                         ? ~std::uint64_t{0} / b + 1
                         : 0)
    {
    }

    std::uint32_t range() const { return bound; }

    /** @p r mod the bound. */
    std::uint32_t
    mod(std::uint32_t r) const
    {
        if (reciprocal == 0)
            return r & mask;
        std::uint64_t low = reciprocal * r;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(low) * bound) >> 64);
    }

    std::uint32_t
    draw(Pcg32 &rng) const
    {
        panic_if(bound == 0, "nextBounded(0)");
        for (;;) {
            std::uint32_t r = rng.next();
            if (r >= threshold)
                return mod(r);
        }
    }

  private:
    std::uint32_t bound = 0;
    std::uint32_t threshold = 0;
    std::uint32_t mask = 0;
    std::uint64_t reciprocal = 0;
};

/**
 * Geometric: the number of failures before the first success of a
 * fixed-probability trial, p in (0, 1], by inversion of one uniform
 * draw; log(1 - p) is computed once.
 */
class GeometricDraw
{
  public:
    explicit GeometricDraw(double p);

    std::uint32_t
    draw(Pcg32 &rng) const
    {
        if (certain)
            return 0;
        double u = rng.uniformReal();
        // Guard against log(0).
        if (u <= 0.0)
            u = 1e-12;
        return static_cast<std::uint32_t>(std::log(u) / logFail);
    }

  private:
    bool certain = false;
    double logFail = 0.0;  //!< log(1 - p)
};

/**
 * Zipf-distributed integer in [0, n) with exponent s, by
 * rejection-inversion (Hormann & Derflinger); used for skewed
 * page/function popularity. Everything but the inverse of the
 * generalized harmonic integral — its ends and, per rank k, the
 * acceptance k^-s and the hat mass H(k + 1/2) - H(k - 1/2) — is
 * tabulated once.
 */
class ZipfTable
{
  public:
    ZipfTable(std::uint32_t n, double s);

    std::uint32_t
    draw(Pcg32 &rng) const
    {
        if (n <= 1) {
            panic_if(n == 0, "zipf: n == 0");
            return 0;
        }
        for (;;) {
            double u = hx0 + rng.uniformReal() * span;
            double x = hInv(u);
            std::uint32_t k = static_cast<std::uint32_t>(x + 0.5);
            if (k < 1)
                k = 1;
            if (k > n)
                k = n;
            // Cheap accept test: acceptance / bound is close to 1 for
            // the dominating density; a uniform draw decides.
            if (rng.uniformReal() * bound[k] <= acceptance[k])
                return k - 1;
        }
    }

  private:
    /** H(x), the integral of x^-s (log x at s == 1). */
    double h(double x) const;

    double
    hInv(double y) const
    {
        if (unitExponent)
            return std::exp(y);
        return std::pow(1.0 + y * oneMinusS, invOneMinusS);
    }

    std::uint32_t n;
    bool unitExponent;
    double oneMinusS;
    double invOneMinusS;
    double hx0;   //!< H(1/2) - 1
    double span;  //!< H(n + 1/2) - hx0
    /** Indexed by rank 1..n (slot 0 unused). */
    std::vector<double> acceptance;
    std::vector<double> bound;
};

/**
 * One exponential interarrival gap (>= 1 cycle) drawn from @p rng for
 * a Poisson stream of @p rate_per_mcycle arrivals per million cycles.
 */
inline Cycles
expGap(Pcg32 &rng, double rate_per_mcycle)
{
    double u = rng.uniformReal();
    double gap = -std::log(1.0 - u) * 1e6 / rate_per_mcycle;
    return gap < 1.0 ? 1 : static_cast<Cycles>(gap);
}

} // namespace indra

#endif // INDRA_SIM_RANDOM_HH
