#include "resilience/rejuvenation.hh"

#include <array>
#include <sstream>

#include "sim/parse.hh"

namespace indra::resilience
{

namespace
{

// Suspicion weights: corruption beats a verdict beats a mere failure;
// queue pressure is a weak tell on its own.
constexpr double scoreViolation = 2.0;
constexpr double scoreFailure = 1.0;
constexpr double scoreCorruption = 3.0;
constexpr double scoreQueuePressure = 0.5;

} // anonymous namespace

const char *
rejuvenationTriggerName(RejuvenationTrigger t)
{
    switch (t) {
      case RejuvenationTrigger::None:
        return "none";
      case RejuvenationTrigger::Periodic:
        return "periodic";
      case RejuvenationTrigger::Epoch:
        return "epoch";
      case RejuvenationTrigger::Suspicion:
        return "suspicion";
    }
    return "??";
}

RejuvenationTrigger
rejuvenationTriggerFromName(const std::string &name,
                            const std::string &key)
{
    static constexpr std::array<RejuvenationTrigger,
                                rejuvenationTriggerCount>
        all = {
            RejuvenationTrigger::None,
            RejuvenationTrigger::Periodic,
            RejuvenationTrigger::Epoch,
            RejuvenationTrigger::Suspicion,
        };
    return parseEnum("setting '" + key + "'", "rejuvenation trigger",
                     name, all, rejuvenationTriggerName);
}

std::string
RejuvenationConfig::describe() const
{
    if (!enabled())
        return "off";
    std::ostringstream os;
    os << rejuvenationTriggerName(trigger);
    switch (trigger) {
      case RejuvenationTrigger::Periodic:
        os << ",p=" << period;
        break;
      case RejuvenationTrigger::Epoch:
        os << ",e=" << epochLimit;
        break;
      case RejuvenationTrigger::Suspicion:
        os << ",th=" << suspicionThreshold << ",d=" << suspicionDecay;
        break;
      case RejuvenationTrigger::None:
        break;
    }
    return os.str();
}


RejuvenationPolicy::RejuvenationPolicy(const RejuvenationConfig &cfg)
    : cfg(cfg)
{
}

void
RejuvenationPolicy::noteEpoch()
{
    ++epochs;
}

void
RejuvenationPolicy::noteOutcome(const net::RequestOutcome &out,
                                std::uint64_t corruption_delta)
{
    using net::RequestStatus;
    if (out.status == RequestStatus::Shed)
        return;
    if (out.violation != mon::Violation::None)
        score += scoreViolation;
    if (corruption_delta > 0)
        score += scoreCorruption;
    if (out.status == RequestStatus::Served) {
        score -= cfg.suspicionDecay;
        if (score < 0.0)
            score = 0.0;
    } else {
        score += scoreFailure;
    }
}

void
RejuvenationPolicy::noteQueuePressure()
{
    score += scoreQueuePressure;
}

bool
RejuvenationPolicy::due(Tick now) const
{
    if (!cfg.enabled())
        return false;
    if (nRestores > 0 && now < saturatingAdd(lastRestore, cfg.cooldown))
        return false;
    switch (cfg.trigger) {
      case RejuvenationTrigger::Periodic:
        return now >= saturatingAdd(lastRestore, cfg.period);
      case RejuvenationTrigger::Epoch:
        return epochs >= cfg.epochLimit;
      case RejuvenationTrigger::Suspicion:
        return score >= cfg.suspicionThreshold;
      case RejuvenationTrigger::None:
        break;
    }
    return false;
}

void
RejuvenationPolicy::noteRestored(Tick now)
{
    lastRestore = now;
    epochs = 0;
    score = 0.0;
    ++nRestores;
}

} // namespace indra::resilience
