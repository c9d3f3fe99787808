/**
 * @file
 * The one set of strict value parsers every configuration surface
 * uses: the NodeConfig key registry (core/node_config.hh), fault-plan
 * specs, the --jobs knob and the CLI driver keys.
 *
 * Every parser consumes the whole string and dies through fatal() on
 * anything else, starting the message with @p what — how the caller
 * names the value's origin, e.g. "setting 'traceFifoEntries'":
 *
 *  - unsigned: decimal digits only (no sign, no whitespace); a value
 *    that overflows the field's width or leaves [lo, hi] is an error.
 *  - f64: finite only (nan, inf and overflowing literals are errors),
 *    within [lo, hi], or (lo, hi] when the low bound is open.
 *  - bool: 1/true/yes/on and 0/false/no/off, nothing else.
 *  - enum: by name; the error lists every valid name.
 */

#ifndef INDRA_SIM_PARSE_HH
#define INDRA_SIM_PARSE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "sim/logging.hh"

namespace indra
{

std::uint64_t
parseU64(const std::string &what, const std::string &value,
         std::uint64_t lo = 0,
         std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

std::uint32_t
parseU32(const std::string &what, const std::string &value,
         std::uint32_t lo = 0,
         std::uint32_t hi = std::numeric_limits<std::uint32_t>::max());

/** Finite double in [lo, hi] ((lo, hi] when @p lo_open). */
double
parseF64(const std::string &what, const std::string &value, double lo,
         double hi = std::numeric_limits<double>::max(),
         bool lo_open = false);

/** The range parseF64 enforces, as "[0, 1]" or "(0, inf)". */
std::string f64Range(double lo, double hi, bool lo_open);

bool parseBool(const std::string &what, const std::string &value);

/**
 * The member of @p all whose @p name_of matches @p value; otherwise
 * fatal, naming the @p noun ("checkpoint scheme") and every valid name.
 */
template <typename E, std::size_t N>
E
parseEnum(const std::string &what, const char *noun,
          const std::string &value, const std::array<E, N> &all,
          const char *(*name_of)(E))
{
    std::string valid;
    for (E e : all) {
        if (value == name_of(e))
            return e;
        valid += valid.empty() ? "" : ", ";
        valid += name_of(e);
    }
    fatal(what, ": unknown ", noun, " '", value, "' (valid: ", valid,
          ")");
}

} // namespace indra

#endif // INDRA_SIM_PARSE_HH
