/**
 * @file
 * Minimal replayable reproducers for escaped failures.
 *
 * An escaped failure — one the in-band monitors never saw — is only
 * actionable if it can be replayed and minimized. A Reproducer wraps
 * the failing check::Scenario with the rca verdict it must reproduce
 * (escape count, diverging window, attributed component), serialized
 * as the scenario's own JSON plus rca_* sidecar keys.
 * Scenario::fromJson ignores unknown keys, so a reproducer file is
 * also a valid plain-scenario file for the fuzz bench's --replay.
 *
 * shrinkReproducer() reuses check::shrinkScenario's greedy
 * delta-debugging pass with an escape-preserving predicate: a
 * candidate survives only if its campaign still produces an escaped
 * failure attributed to the same component.
 */

#ifndef INDRA_RCA_REPRODUCER_HH
#define INDRA_RCA_REPRODUCER_HH

#include <cstdint>
#include <string>

#include "rca/campaign.hh"

namespace indra::rca
{

/** One escaped failure packaged for replay. */
struct Reproducer
{
    check::Scenario scenario;
    /** Attributed fault site of the first escaped failure. */
    faults::FaultKind kind = faults::FaultKind::TraceDrop;
    faults::FaultComponent component =
        faults::FaultComponent::TraceTransport;
    /** Verdict the replay must reproduce. */
    std::uint64_t expectEscapes = 0;
    std::uint64_t expectFailures = 0;
    std::uint64_t expectFirstEscapeSeq = 0;
    /** Campaign evaluations the shrinker spent (0 = never shrunk). */
    std::uint64_t shrinkRuns = 0;

    bool operator==(const Reproducer &) const = default;
};

/** Escaped failures in @p res attributed to @p component. */
std::uint64_t escapesFor(const CampaignResult &res,
                         faults::FaultComponent component);

/**
 * Package @p res's first escaped failure (which must exist) as a
 * reproducer for @p sc.
 */
Reproducer makeReproducer(const check::Scenario &sc,
                          const CampaignResult &res);

/**
 * Greedily minimize @p rep's scenario while its campaign keeps
 * producing an escaped failure attributed to the same component,
 * spending at most @p rcfg.shrinkBudget campaign evaluations. The
 * returned reproducer's expectations are refreshed from the shrunk
 * campaign.
 */
Reproducer shrinkReproducer(const Reproducer &rep,
                            const RcaConfig &rcfg);

/**
 * Replay @p rep's campaign and check the recorded verdict: same
 * escape count for the component, same failure count, same first
 * escaped window.
 * @return true when the verdict reproduced; the rerun result is
 *         stored in @p out when non-null either way.
 */
bool replayReproducer(const Reproducer &rep, const RcaConfig &rcfg,
                      CampaignResult *out = nullptr);

std::string reproducerToJson(const Reproducer &rep);
Reproducer reproducerFromJson(const std::string &text);

} // namespace indra::rca

#endif // INDRA_RCA_REPRODUCER_HH
