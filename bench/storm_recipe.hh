/**
 * @file
 * The storm recipe shared by the storm benches (overload storm,
 * adaptive adversary, domain rewind, cluster scale): one defended
 * node, one static and one adaptive attacker plan, one cell runner.
 *
 * Those benches compare recovery strategies against each other, which
 * only holds if every one of them attacks the same node with the same
 * attacker. The helpers here hold the values the benches share; a
 * bench that needs something different overrides the field after the
 * call, and no helper branches on which bench called it.
 */

#ifndef INDRA_BENCH_STORM_RECIPE_HH
#define INDRA_BENCH_STORM_RECIPE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "bench_util.hh"
#include "core/node_handle.hh"
#include "resilience/storm.hh"

namespace indra::benchutil
{

/**
 * The storm node's machine: 128 MiB, a 4-failure ladder, macro epochs
 * every 10 requests (frequent enough for the ladder and the epoch
 * trigger to have somewhere to fall back to), and rejuvenation priced
 * at 2 Mcycles so pre-empting it matters without dwarfing the run.
 */
inline SystemConfig
stormSystem()
{
    SystemConfig cfg;
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    cfg.consecutiveFailureThreshold = 4;
    cfg.macroCheckpointPeriod = 10;
    cfg.rejuvenationCycles = 2000000;
    return cfg;
}

/** The storm node's front door: bounded queue, health machine armed. */
inline resilience::ResilienceConfig
stormDefense()
{
    resilience::ResilienceConfig rc;
    rc.queueBound = 6;
    rc.fifoHighWater = 24;
    rc.degradeViolations = 2;
    rc.quarantineFailStreak = 2;
    rc.healServedStreak = 3;
    return rc;
}

/** @p daemon's profile at the storm request size (25k instructions). */
inline net::DaemonProfile
stormDaemon(const std::string &daemon)
{
    net::DaemonProfile profile = net::daemonByName(daemon);
    profile.instrPerRequest = 25000;
    return profile;
}

namespace detail
{

/** The legit side of every storm: seed 1, 1/Mcycle, 3 Mcycle deadline. */
inline resilience::StormPlan
stormLoad(std::uint64_t legit_requests)
{
    resilience::StormPlan plan;
    plan.seed = 1;
    plan.legitRequests = legit_requests;
    plan.legitRatePerMCycle = 1.0;
    plan.deadline = 3000000;
    plan.probePeriod = 50000;
    return plan;
}

} // namespace detail

/** The seed-1 static StackSmash timeline: 8/Mcycle in bursts of 4. */
inline resilience::StormPlan
staticStorm(std::uint64_t legit_requests)
{
    resilience::StormPlan plan = detail::stormLoad(legit_requests);
    plan.attackRatePerMCycle = 8.0;
    plan.burstLen = 4;
    plan.attackKind = net::AttackKind::StackSmash;
    return plan;
}

/**
 * The closed-loop attacker: @p strategy spending @p budget requests in
 * StackSmash bursts of 4 from a 500k-cycle base gap, replanting
 * dormant damage 100k cycles after a heal.
 */
inline resilience::StormPlan
adaptiveStorm(adversary::AdversaryStrategy strategy, std::uint64_t budget,
              std::uint64_t legit_requests)
{
    resilience::StormPlan plan = detail::stormLoad(legit_requests);
    plan.adversary.armed = true;
    plan.adversary.strategy = strategy;
    plan.adversary.budget = budget;
    plan.adversary.burstLen = 4;
    plan.adversary.baseGap = 500000;
    plan.adversary.payload = net::AttackKind::StackSmash;
    plan.adversary.reinfectDelay = 100000;
    return plan;
}

/**
 * Run one storm cell, captured by @p cell under @p label: build
 * @p node, deploy @p daemon at the storm request size, run @p plan,
 * and call @p inspect (if any) with the system and service slot.
 */
inline resilience::StormReport
runStormCell(const core::NodeConfig &node, const std::string &daemon,
             const resilience::StormPlan &plan, CellObs cell = {},
             const std::string &label = "",
             const std::function<void(core::IndraSystem &, std::size_t)>
                 &inspect = {})
{
    core::IndraSystem sys(node);
    return cell.capture(sys, label, [&] {
        std::size_t slot = sys.deployService(stormDaemon(daemon));
        resilience::StormReport rep = core::runStorm(sys, slot, plan);
        if (inspect)
            inspect(sys, slot);
        return rep;
    });
}

/**
 * The equal-budget anchor: the attack volume the static storm
 * delivers. attackArrivals depends only on the static timeline, not
 * on the node, so every bench that grants its adaptive attackers this
 * budget faces the same spend.
 */
inline std::uint64_t
equalBudget(std::uint64_t legit_requests)
{
    core::NodeConfig node(stormSystem(), {}, stormDefense());
    return runStormCell(node, "httpd", staticStorm(legit_requests))
        .attackArrivals;
}

/** sheds / (sheds + executed), 0 when nothing arrived. */
inline double
shedRate(const resilience::StormReport &r)
{
    std::uint64_t sheds = r.shedTotal();
    return sheds + r.executed
               ? static_cast<double>(sheds) /
                     static_cast<double>(sheds + r.executed)
               : 0.0;
}

} // namespace indra::benchutil

#endif // INDRA_BENCH_STORM_RECIPE_HH
