/**
 * @file
 * Adaptive-adversary survivability matrix: sweep attacker strategy x
 * proactive rejuvenation policy and measure what the closed loop
 * costs the defense — and what proactive restores buy back.
 *
 * The attacker axis starts with the classic precomputed storm
 * timeline ("static") and then the four closed-loop strategies, each
 * granted the SAME total request budget the static storm actually
 * delivered, so every comparison is at equal attack volume. The
 * defense axis runs the reactive recovery ladder alone ("none") and
 * then each proactive rejuvenation trigger.
 *
 * Every cell is a pure function of (config, StormPlan): adversary
 * decisions derive from a per-strategy PCG32 stream plus signals of a
 * deterministic run, so the table is bit-identical for any --jobs.
 *
 * Reported per cell:
 *   goodput   served legitimate requests per Mcycle
 *   raw_tput  executed requests (attacks included) per Mcycle
 *   shed_rate sheds / (sheds + executed)
 *   p99       legit response time p99, cycles
 *   rec_p99   p99 latency of requests needing any recovery
 *   moves     adversary moves planned (0 for the static timeline)
 *   reinf     re-infections (dormant damage replanted after a heal)
 *   t_reinf   first heal -> first re-infection, cycles (0 = never)
 *   proact    proactive restores fired ahead of a monitor verdict
 *
 * Usage: bench_adaptive_adversary [--jobs N] [--smoke]
 *                                 [--ablate K=V[,K=V...]]
 * --ablate applies NodeConfig key overrides (adversary.* /
 * rejuvenation.* / resilience.* / domain.* and the rest of the
 * registry) to every cell (the ablation-matrix flags).
 * --smoke shrinks the workload and self-checks: equal budgets, at
 * least one adaptive strategy strictly under the static attacker's
 * goodput, at least one caught re-infection, and at least one
 * proactive policy at or above the reactive-only goodput under the
 * reinfect attacker.
 */

#include <string>
#include <vector>

#include "storm_recipe.hh"

using namespace indra;

namespace
{

/** The attacker axis: the static timeline plus every strategy. */
struct AttackerSpec
{
    const char *label;
    bool adaptive;
    adversary::AdversaryStrategy strategy;
};

constexpr AttackerSpec attackers[] = {
    {"static", false, adversary::AdversaryStrategy::Fixed},
    {"fixed", true, adversary::AdversaryStrategy::Fixed},
    {"probe-burst", true, adversary::AdversaryStrategy::ProbeBurst},
    {"reinfect", true, adversary::AdversaryStrategy::Reinfect},
    {"latency-tuner", true, adversary::AdversaryStrategy::LatencyTuner},
};
constexpr std::size_t nAttackers =
    sizeof(attackers) / sizeof(attackers[0]);

constexpr resilience::RejuvenationTrigger policies[] = {
    resilience::RejuvenationTrigger::None,
    resilience::RejuvenationTrigger::Periodic,
    resilience::RejuvenationTrigger::Epoch,
    resilience::RejuvenationTrigger::Suspicion,
};
constexpr std::size_t nPolicies = sizeof(policies) / sizeof(policies[0]);

struct Cell
{
    std::string label;
    resilience::StormReport rep;
};

resilience::ResilienceConfig
defenseConfig(resilience::RejuvenationTrigger trigger)
{
    resilience::ResilienceConfig rc = benchutil::stormDefense();
    rc.rejuvenation.trigger = trigger;
    // Policies tuned to the storm horizon (tens of Mcycles): a few
    // restores per run, not one per request.
    rc.rejuvenation.period = 10000000;
    rc.rejuvenation.epochLimit = 3;
    rc.rejuvenation.suspicionThreshold = 12.0;
    rc.rejuvenation.cooldown = 4000000;
    return rc;
}

Cell
runCell(const AttackerSpec &a, resilience::RejuvenationTrigger policy,
        std::uint64_t budget, std::uint64_t legit_requests,
        const std::vector<std::string> &ablations,
        benchutil::CellObs cell_obs)
{
    resilience::StormPlan plan =
        a.adaptive
            ? benchutil::adaptiveStorm(a.strategy, budget, legit_requests)
            : benchutil::staticStorm(legit_requests);
    core::NodeConfig node(benchutil::stormSystem(), {},
                          defenseConfig(policy));
    // Command-line overrides land on top of the matrix cell, so a
    // single flag sweeps the whole table through a what-if; the
    // cell's attacker round-trips through the node's adversary block.
    node.adversary = plan.adversary;
    core::applyNodeSettings(node, ablations);
    plan.adversary = node.adversary;

    Cell cell;
    cell.label = std::string(a.label) + ":" +
                 resilience::rejuvenationTriggerName(policy);
    cell.rep =
        benchutil::runStormCell(node, "httpd", plan, cell_obs, cell.label);
    return cell;
}

void
printCell(const Cell &c)
{
    const resilience::StormReport &r = c.rep;
    std::cout << std::left << std::setw(24) << c.label << std::right
              << std::setw(9) << std::fixed << std::setprecision(3)
              << r.goodput()
              << std::setw(9) << r.rawThroughput()
              << std::setw(10) << benchutil::shedRate(r)
              << std::setw(11) << r.legitP99
              << std::setw(11) << r.recoveryP99
              << std::setw(7) << r.adversaryMoves
              << std::setw(7) << r.reinfections
              << std::setw(11) << r.timeToReinfection
              << std::setw(8) << r.proactiveRestores << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench(
        "bench_adaptive_adversary",
        "Survivability matrix: adaptive attacker strategies vs "
        "proactive rejuvenation policies, at equal attack budget");
    bool smoke = false;
    bench.cli.flag("--smoke", "CI-sized subset with self-checks", &smoke);
    bench.cli.ablateOption("NodeConfig key overrides (adversary.*, "
                     "rejuvenation.*, resilience.*, domain.*, ...) "
                     "applied to every cell");
    bench.parse(argc, argv);
    const std::vector<std::string> ablations = bench.cli.ablations();

    const std::uint64_t legit_requests = smoke ? 60 : 140;

    // The equal-budget anchor: grant every adaptive attacker exactly
    // the request volume the static storm delivers. A pure rerun of
    // the same cell appears in the matrix, so the anchor costs one
    // extra run but keeps the sweep uniform.
    const std::size_t n = nAttackers * nPolicies;
    const std::uint64_t budget = benchutil::equalBudget(legit_requests);

    benchutil::printHeader(
        "Adaptive adversary: strategy x rejuvenation policy, budget " +
            std::to_string(budget),
        benchutil::stormSystem());
    if (!ablations.empty())
        std::cout << "ablations: " << bench.cli.ablateSpec() << "\n\n";
    std::cout << std::left << std::setw(24) << "cell" << std::right
              << std::setw(9) << "goodput"
              << std::setw(9) << "raw_tput"
              << std::setw(10) << "shed_rate"
              << std::setw(11) << "p99"
              << std::setw(11) << "rec_p99"
              << std::setw(7) << "moves"
              << std::setw(7) << "reinf"
              << std::setw(11) << "t_reinf"
              << std::setw(8) << "proact" << "\n";

    auto cells = bench.run(n, [&](std::size_t i, benchutil::CellObs cell_obs) {
        const AttackerSpec &a = attackers[i / nPolicies];
        resilience::RejuvenationTrigger policy = policies[i % nPolicies];
        return runCell(a, policy, budget, legit_requests, ablations, cell_obs);
    });

    for (const Cell &c : cells)
        printCell(c);

    if (!smoke)
        return 0;

    // ------------------------------------------------- self checks
    benchutil::SmokeChecks check;
    auto cellAt = [&](std::size_t attacker,
                      std::size_t policy) -> const Cell & {
        return cells[attacker * nPolicies + policy];
    };

    // Equal budgets actually held: no adaptive attacker overspent.
    for (std::size_t a = 1; a < nAttackers; ++a) {
        for (std::size_t p = 0; p < nPolicies; ++p) {
            const Cell &c = cellAt(a, p);
            check(c.rep.adversaryRequests <= budget,
                  "adversary overspent its budget (" + c.label + ")");
            check(c.rep.adversaryMoves > 0,
                  "adaptive attacker never moved (" + c.label + ")");
        }
    }

    // (a) Adaptation pays: against the reactive-only defense, some
    // closed-loop strategy beats the static timeline — strictly less
    // defense goodput at the same attack volume.
    double static_good = cellAt(0, 0).rep.goodput();
    double worst_adaptive = static_good;
    for (std::size_t a = 1; a < nAttackers; ++a) {
        double g = cellAt(a, 0).rep.goodput();
        if (g < worst_adaptive)
            worst_adaptive = g;
    }
    check(worst_adaptive < static_good,
          "no adaptive strategy beat the static attacker's goodput "
          "damage at equal budget");

    // The reinfect attacker must actually land a caught re-infection
    // against the reactive defense.
    check(cellAt(3, 0).rep.reinfections >= 1,
          "reinfect attacker never re-infected the reactive defense");

    // (b) Proactive rejuvenation pays: under the reinfect attacker,
    // at least one proactive policy restores goodput to at least the
    // reactive-only level.
    double reactive_good = cellAt(3, 0).rep.goodput();
    bool proactive_recovers = false;
    for (std::size_t p = 1; p < nPolicies; ++p) {
        const Cell &c = cellAt(3, p);
        // Only a policy that actually fired counts: a trigger that
        // never crosses its boundary is the reactive run in disguise.
        if (c.rep.proactiveRestores >= 1 &&
            c.rep.goodput() >= reactive_good)
            proactive_recovers = true;
    }
    check(proactive_recovers,
          "no proactive policy that fired recovered the reactive-only "
          "goodput under the reinfect attacker");

    // Proactive policies must actually fire somewhere.
    std::uint64_t proact = 0;
    for (std::size_t a = 0; a < nAttackers; ++a) {
        for (std::size_t p = 1; p < nPolicies; ++p)
            proact += cellAt(a, p).rep.proactiveRestores;
    }
    check(proact > 0, "no proactive restore fired anywhere");

    return check.finish();
}
