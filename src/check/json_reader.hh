/**
 * @file
 * A minimal JSON reader for scenario reproducer files.
 *
 * The simulator writes JSON in several places (stats export, trace
 * sinks, fuzz reproducers) but until now never read any back. This
 * parser covers exactly the subset those writers emit — objects,
 * arrays, strings with escapes, numbers, booleans, null — and calls
 * fatal() with a character position on anything malformed, including
 * nesting deeper than 64 levels, so no input file can crash a
 * --replay.
 *
 * Numbers keep their source text and are converted only when read,
 * through the strict parsers of sim/parse.hh: an integer field is
 * exact over the whole u64 range, and a sign, fraction, exponent or
 * out-of-range value in one is fatal, naming the key.
 */

#ifndef INDRA_ORACLE_JSON_READER_HH
#define INDRA_ORACLE_JSON_READER_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace indra::check
{

/** One parsed JSON value (a small closed-world variant). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< String contents, or a Number's source text
    std::vector<JsonValue> items;                       //!< Array
    std::vector<std::pair<std::string, JsonValue>> fields; //!< Object

    /** Object field by name, or nullptr. */
    const JsonValue *field(const std::string &name) const;

    /**
     * Typed field accessors with defaults. A field that exists but has
     * the wrong kind, or a number outside the accessor's type or
     * range, is fatal; the message names the key as @p path + @p name
     * (path "steps[]." for the items of a "steps" array).
     */
    double num(const std::string &name, double fallback,
               double lo = -std::numeric_limits<double>::max(),
               double hi = std::numeric_limits<double>::max(),
               const std::string &path = "") const;
    std::uint64_t u64(const std::string &name, std::uint64_t fallback,
                      const std::string &path = "") const;
    std::uint32_t u32(const std::string &name, std::uint32_t fallback,
                      const std::string &path = "") const;
    bool flag(const std::string &name, bool fallback,
              const std::string &path = "") const;
    std::string str(const std::string &name, const std::string &fallback,
                    const std::string &path = "") const;

    /**
     * The items of array field @p name (empty when absent). A field
     * that is not an array, or an item that is not an object, is
     * fatal, naming the key.
     */
    const std::vector<JsonValue> &objects(const std::string &name) const;
};

/** Parse @p text as one JSON document; fatal() on malformed input. */
JsonValue parseJson(const std::string &text);

} // namespace indra::check

#endif // INDRA_ORACLE_JSON_READER_HH
