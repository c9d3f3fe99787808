#include "sim/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace indra
{

std::uint64_t
parseU64(const std::string &what, const std::string &value,
         std::uint64_t lo, std::uint64_t hi)
{
    constexpr std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    bool overflow = false;
    for (char c : value) {
        fatal_if(c < '0' || c > '9', what, ": '", value,
                 "' is not a number (want an unsigned integer)");
        auto digit = static_cast<std::uint64_t>(c - '0');
        overflow = overflow || v > (max - digit) / 10;
        v = v * 10 + digit;
    }
    fatal_if(value.empty(), what,
             ": '' is not a number (want an unsigned integer)");
    fatal_if(overflow || v < lo || v > hi, what, ": '", value,
             "' is out of range [", lo, ", ", hi, "]");
    return v;
}

std::uint32_t
parseU32(const std::string &what, const std::string &value,
         std::uint32_t lo, std::uint32_t hi)
{
    return static_cast<std::uint32_t>(parseU64(what, value, lo, hi));
}

double
parseF64(const std::string &what, const std::string &value, double lo,
         double hi, bool lo_open)
{
    // strtod would skip leading whitespace; reject it up front.
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    double v = 0.0;
    if (!value.empty() && !std::isspace(static_cast<unsigned char>(*begin)))
        v = std::strtod(begin, &end);
    fatal_if(end != begin + value.size(), what, ": '", value,
             "' is not a number");
    fatal_if(!std::isfinite(v) || errno == ERANGE, what, ": '", value,
             "' is not a finite double");
    fatal_if((lo_open ? v <= lo : v < lo) || v > hi, what, ": '", value,
             "' is out of range ", f64Range(lo, hi, lo_open));
    return v;
}

std::string
f64Range(double lo, double hi, bool lo_open)
{
    std::ostringstream os;
    os << (lo_open ? "(" : "[") << lo << ", ";
    if (hi == std::numeric_limits<double>::max())
        os << "inf)";
    else
        os << hi << "]";
    return os.str();
}

bool
parseBool(const std::string &what, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes" ||
        value == "on")
        return true;
    if (value == "0" || value == "false" || value == "no" ||
        value == "off")
        return false;
    fatal(what, ": '", value,
          "' is not a boolean (want 1/0, true/false, yes/no, on/off)");
}

} // namespace indra
