/**
 * @file
 * The rca campaign runner: one faulted run, one golden replay, and
 * the per-window comparison that turns "this cell failed" into "this
 * component's fault at this site became this failure, detected by
 * these detectors at these latencies".
 *
 * The replay detector is RepTFD-style: the golden twin re-executes
 * the same request windows on the same node build with the fault
 * plan stripped, and a fault is detected as divergence from it. Both
 * runs are one window runner — build, boot, deploy, one
 * processRequest per window, the loop check::runScenario drives — so
 * the twin serves exactly the schedule the faulted run served.
 *
 * A campaign cell is a check::Scenario (pure value of its seed), so
 * every result here is a pure function of (scenario, RcaConfig) and
 * ParallelSweep cells stay bit-identical for any --jobs count.
 */

#ifndef INDRA_RCA_CAMPAIGN_HH
#define INDRA_RCA_CAMPAIGN_HH

#include <cstdint>
#include <vector>

#include "check/scenario.hh"
#include "rca/attribution.hh"
#include "rca/rca_config.hh"

namespace indra::rca
{

/** Everything one campaign cell concluded. */
struct CampaignResult
{
    /** Faulted-run windows, in execution order. */
    std::vector<WindowRecord> windows;
    /** The injector's site log, copied out of the faulted system. */
    std::vector<faults::FaultSite> sites;
    /** Outcomes the fault turned into failures (divergences). */
    std::vector<Failure> failures;
    /** Injections fired (== sites.size(); cross-checked). */
    std::uint64_t injectedTotal = 0;
    /** Final faulted memory != final golden memory. */
    bool memoryDiverged = false;
    /** Requests executed. */
    std::uint64_t requests = 0;
    /** Golden replay ran (RcaConfig::replay, and a twin was built). */
    bool replayed = false;
};

/**
 * Run the campaign cell: faulted run, golden replay (when
 * @p rcfg.replay), window comparison, site attribution, and the
 * final-state memory audit (when @p rcfg.memoryAudit). The campaign
 * serves @p sc's request schedule only: a scenario that sets a storm
 * field (storm_burst, storm_attack_rate, adversary_*) or
 * plant_at_epoch is a fatal error naming that key.
 */
CampaignResult runCampaign(const check::Scenario &sc,
                           const RcaConfig &rcfg);

} // namespace indra::rca

#endif // INDRA_RCA_CAMPAIGN_HH
