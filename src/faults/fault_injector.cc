#include "faults/fault_injector.hh"

#include <cstring>

#include "sim/logging.hh"

namespace indra::faults
{

std::uint64_t
checksum64(const void *data, std::size_t len)
{
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * prime;
    }
    for (; i < len; ++i)
        h = (h ^ p[i]) * prime;
    return h;
}

FaultInjector::FaultInjector(const FaultPlan &plan,
                             stats::StatGroup &parent)
    : thePlan(plan), statGroup(parent, "faults")
{
    for (FaultKind kind : allFaultKinds()) {
        std::size_t i = index(kind);
        rates[i] = plan.rate(kind);
        // One independent stream per kind: the stream id folds in the
        // kind so two kinds at the same seed never correlate.
        streams[i] = Pcg32(plan.seed(), 0x9e3779b97f4a7c15ULL + i);
        statInjected.push_back(std::make_unique<stats::Scalar>(
            statGroup, std::string("injected_") + faultKindName(kind),
            std::string("injected ") + faultKindName(kind) +
                " faults"));
    }
}

bool
FaultInjector::fire(FaultKind kind)
{
    std::size_t i = index(kind);
    if (rates[i] <= 0.0)
        return false;
    if (!streams[i].bernoulli(rates[i]))
        return false;
    ++fired[i];
    ++*statInjected[i];
    // Append-only site log: the firing's full identity survives even
    // after later faults of the same kind fire (the counters alone
    // lose the ordinal). Site id == index in the log.
    FaultSite site;
    site.kind = kind;
    site.component = componentOf(kind);
    site.tick = curTick;
    site.streamPos = fired[i];
    siteLog.push_back(site);
#if INDRA_OBS_TRACING_ENABLED
    if (traceLog)
        traceLog->emitNow(obs::EventKind::FaultInjected, traceSource,
                          static_cast<std::uint64_t>(kind),
                          siteLog.size() - 1);
#endif
    return true;
}

std::uint32_t
FaultInjector::pick(FaultKind kind, std::uint32_t bound)
{
    panic_if(bound == 0, "fault pick with empty range");
    return streams[index(kind)].nextBounded(bound);
}

Cycles
FaultInjector::verdictDelay()
{
    if (!fire(FaultKind::MonitorDelay))
        return 0;
    std::uint64_t mag = thePlan.magnitude(FaultKind::MonitorDelay);
    return mag ? mag : 10000;
}

std::uint64_t
FaultInjector::injected(FaultKind kind) const
{
    return fired[index(kind)];
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::uint64_t n = 0;
    for (std::uint64_t f : fired)
        n += f;
    return n;
}

} // namespace indra::faults
