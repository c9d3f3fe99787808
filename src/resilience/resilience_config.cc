#include "resilience/resilience_config.hh"

#include <sstream>

namespace indra::resilience
{

bool
ResilienceConfig::enabled() const
{
    if (queueBound != 0 || fifoHighWater != 0 ||
        resourcePressurePages != 0 || rejuvenation.enabled())
        return true;
    for (double r : tokensPerMCycle) {
        if (r > 0.0)
            return true;
    }
    return false;
}

std::uint32_t
ResilienceConfig::effectiveLowWater() const
{
    return fifoLowWater != 0 ? fifoLowWater : fifoHighWater / 2;
}

std::string
ResilienceConfig::describe() const
{
    if (!enabled())
        return "off";
    std::ostringstream os;
    os << "q=" << queueBound;
    for (std::size_t c = 0; c < net::clientClassCount; ++c) {
        if (tokensPerMCycle[c] > 0.0) {
            os << "," << net::clientClassName(
                             static_cast<net::ClientClass>(c))
               << "=" << tokensPerMCycle[c] << "/" << tokenBurst[c];
        }
    }
    if (fifoHighWater != 0)
        os << ",hw=" << fifoHighWater << "/" << effectiveLowWater();
    if (resourcePressurePages != 0)
        os << ",rp=" << resourcePressurePages;
    if (rejuvenation.enabled())
        os << ",rj=" << rejuvenation.describe();
    return os.str();
}

} // namespace indra::resilience
