#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace indra
{

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1) | 1)
{
    next();
    state += seed;
    next();
}

std::uint64_t
Pcg32::next64()
{
    // Sequence the two draws explicitly: the evaluation order of
    // `(next() << 32) | next()` is unspecified, and a deterministic
    // generator cannot depend on the compiler's choice.
    std::uint64_t high = next();
    std::uint64_t low = next();
    return (high << 32) | low;
}

std::uint64_t
Pcg32::uniform(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "uniform: lo > hi");
    std::uint64_t span = hi - lo + 1;
    if (span == 0) {
        // Full 64-bit range.
        return next64();
    }
    if (span <= 0xffffffffULL)
        return lo + nextBounded(static_cast<std::uint32_t>(span));
    // Lemire-style rejection, exactly as nextBounded does for 32-bit
    // spans: a bare `r % span` over-weights the low residues (for a
    // span of 3 * 2^62 the bottom quarter of the range would be drawn
    // twice as often as the rest).
    std::uint64_t threshold = (0 - span) % span;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return lo + (r % span);
    }
}

GeometricDraw::GeometricDraw(double p)
{
    panic_if(p <= 0.0 || p > 1.0, "geometric: p out of range");
    certain = p == 1.0;
    if (!certain)
        logFail = std::log(1.0 - p);
}

ZipfTable::ZipfTable(std::uint32_t n_in, double s)
    : n(n_in), unitExponent(std::abs(s - 1.0) < 1e-9),
      oneMinusS(1.0 - s), invOneMinusS(1.0 / (1.0 - s))
{
    hx0 = h(0.5) - 1.0;
    span = h(n + 0.5) - hx0;
    acceptance.assign(n + 1, 0.0);
    bound.assign(n + 1, 0.0);
    for (std::uint32_t k = 1; k <= n; ++k) {
        acceptance[k] = std::pow(static_cast<double>(k), -s);
        bound[k] = h(k + 0.5) - h(k - 0.5);
    }
}

double
ZipfTable::h(double x) const
{
    if (unitExponent)
        return std::log(x);
    return (std::pow(x, oneMinusS) - 1.0) / oneMinusS;
}

Pcg32
Pcg32::fork()
{
    std::uint64_t seed = next64();
    std::uint64_t stream = next64();
    return Pcg32(seed, stream);
}

} // namespace indra
