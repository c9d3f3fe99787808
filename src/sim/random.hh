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

    /** Geometric: number of failures before first success, prob p. */
    std::uint32_t geometric(double p);

    /**
     * Zipf-distributed integer in [0, n) with exponent @p s, via
     * rejection-inversion. Used for skewed page/function popularity.
     */
    std::uint32_t zipf(std::uint32_t n, double s);

    /** Fork a child generator with an independent stream. */
    Pcg32 fork();

  private:
    std::uint64_t state;
    std::uint64_t inc;
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
