#include "adversary/adversary_config.hh"

#include <array>
#include <sstream>

#include "sim/parse.hh"

namespace indra::adversary
{

const char *
adversaryStrategyName(AdversaryStrategy s)
{
    switch (s) {
      case AdversaryStrategy::Fixed:
        return "fixed";
      case AdversaryStrategy::ProbeBurst:
        return "probe-burst";
      case AdversaryStrategy::Reinfect:
        return "reinfect";
      case AdversaryStrategy::LatencyTuner:
        return "latency-tuner";
    }
    return "??";
}

AdversaryStrategy
adversaryStrategyFromName(const std::string &name, const std::string &key)
{
    static constexpr std::array<AdversaryStrategy,
                                adversaryStrategyCount>
        all = {
            AdversaryStrategy::Fixed,
            AdversaryStrategy::ProbeBurst,
            AdversaryStrategy::Reinfect,
            AdversaryStrategy::LatencyTuner,
        };
    return parseEnum("setting '" + key + "'", "adversary strategy", name,
                     all, adversaryStrategyName);
}

std::string
AdversaryConfig::describe() const
{
    if (!enabled())
        return "off";
    std::ostringstream os;
    os << adversaryStrategyName(strategy) << ",n=" << budget
       << ",b=" << burstLen;
    switch (strategy) {
      case AdversaryStrategy::ProbeBurst:
        os << ",occ=" << occupancyFraction;
        break;
      case AdversaryStrategy::LatencyTuner:
        os << ",gf=" << gapFactor;
        break;
      case AdversaryStrategy::Reinfect:
        os << ",rd=" << reinfectDelay;
        break;
      case AdversaryStrategy::Fixed:
        break;
    }
    return os.str();
}

} // namespace indra::adversary
