/**
 * @file
 * Confined domain rewind vs full rejuvenation, at equal attack budget.
 *
 * The reinfect adversary replants dormant damage every time the
 * defense heals, which is exactly the workload the fourth recovery
 * scheme was built for: under the classic ladder every replant costs
 * a macro restore or a full rejuvenation of the whole service, while
 * the domain-rewind scheme discards only the attributed compartment
 * and keeps the other domains serving.
 *
 * The attacker axis is fixed (reinfect, budget anchored to what the
 * static storm actually delivered); the defense axis is the paper's
 * delta-backup ladder followed by the domain-rewind scheme at 2, 4,
 * and 8 compartments. Every cell is a pure function of its config, so
 * the table is bit-identical for any --jobs.
 *
 * Reported per cell:
 *   goodput   served legitimate requests per Mcycle
 *   raw_tput  executed requests (attacks included) per Mcycle
 *   shed_rate sheds / (sheds + executed)
 *   p99       legit response time p99, cycles
 *   rec_p99   p99 latency of requests needing any recovery
 *   rewinds   confined domain rewinds performed
 *   dorm_live rewinds that left dormant damage alive (must stay 0)
 *   reinf     re-infections (dormant damage replanted after a heal)
 *   rejuv     full rejuvenations the ladder still had to pay for
 *
 * Usage: bench_domain_rewind [--jobs N] [--smoke]
 * --smoke shrinks the workload and self-checks: equal budgets, at
 * least one confined rewind, no dormant damage surviving any rewind,
 * and the domain-rewind scheme strictly above the full-rejuvenation
 * ladder's goodput under the same attacker.
 */

#include <string>
#include <vector>

#include "storm_recipe.hh"

using namespace indra;

namespace
{

/** The defense axis: the classic ladder, then confined rewind. */
struct DefenseSpec
{
    const char *label;
    CheckpointScheme scheme;
    std::uint32_t domains;  //!< 0 = config default (unused)
};

constexpr DefenseSpec defenses[] = {
    {"full-rejuvenation", CheckpointScheme::DeltaBackup, 0},
    {"domain-rewind:2", CheckpointScheme::DomainRewind, 2},
    {"domain-rewind:4", CheckpointScheme::DomainRewind, 4},
    {"domain-rewind:8", CheckpointScheme::DomainRewind, 8},
};
constexpr std::size_t nDefenses =
    sizeof(defenses) / sizeof(defenses[0]);

struct Cell
{
    std::string label;
    resilience::StormReport rep;
    std::uint64_t rejuvenations = 0;
};

Cell
runCell(const DefenseSpec &d, std::uint64_t budget,
        std::uint64_t legit_requests, benchutil::CellObs cell_obs)
{
    core::NodeConfig node(benchutil::stormSystem(), {},
                          benchutil::stormDefense());
    node.system.checkpointScheme = d.scheme;
    if (d.domains)
        node.system.domainCount = d.domains;

    Cell cell;
    cell.label = d.label;
    cell.rep = benchutil::runStormCell(
        node, "httpd",
        benchutil::adaptiveStorm(adversary::AdversaryStrategy::Reinfect,
                                 budget, legit_requests),
        cell_obs, cell.label,
        [&cell](core::IndraSystem &sys, std::size_t slot) {
            cell.rejuvenations = sys.slot(slot).recovery->rejuvenations();
        });
    return cell;
}

void
printCell(const Cell &c)
{
    const resilience::StormReport &r = c.rep;
    std::cout << std::left << std::setw(20) << c.label << std::right
              << std::setw(9) << std::fixed << std::setprecision(3)
              << r.goodput()
              << std::setw(9) << r.rawThroughput()
              << std::setw(10) << benchutil::shedRate(r)
              << std::setw(11) << r.legitP99
              << std::setw(11) << r.recoveryP99
              << std::setw(9) << r.domainRewinds
              << std::setw(10) << r.dormantAfterRewind
              << std::setw(7) << r.reinfections
              << std::setw(7) << c.rejuvenations << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench(
        "bench_domain_rewind",
        "Confined domain rewind vs full rejuvenation under the "
        "reinfect adversary, at equal attack budget");
    bool smoke = false;
    bench.cli.flag("--smoke", "CI-sized subset with self-checks", &smoke);
    bench.parse(argc, argv);

    const std::uint64_t legit_requests = smoke ? 60 : 140;

    // The equal-budget anchor: grant the reinfect adversary exactly
    // the attack volume the static storm delivers, so every defense
    // faces the same attacker spend.
    const std::uint64_t budget = benchutil::equalBudget(legit_requests);

    benchutil::printHeader(
        "Domain rewind vs full rejuvenation (reinfect adversary, "
        "budget " + std::to_string(budget) + ")",
        benchutil::stormSystem());
    std::cout << std::left << std::setw(20) << "defense" << std::right
              << std::setw(9) << "goodput"
              << std::setw(9) << "raw_tput"
              << std::setw(10) << "shed_rate"
              << std::setw(11) << "p99"
              << std::setw(11) << "rec_p99"
              << std::setw(9) << "rewinds"
              << std::setw(10) << "dorm_live"
              << std::setw(7) << "reinf"
              << std::setw(7) << "rejuv" << "\n";

    auto cells = bench.run(nDefenses, [&](std::size_t i,
                                          benchutil::CellObs cell_obs) {
        return runCell(defenses[i], budget, legit_requests, cell_obs);
    });

    for (const Cell &c : cells)
        printCell(c);

    if (!smoke)
        return 0;

    // ------------------------------------------------- self checks
    benchutil::SmokeChecks check;

    // Equal budgets actually held, and no rewind anywhere left
    // dormant damage alive (the DomainRewindClearsDormant contract).
    for (const Cell &c : cells) {
        check(c.rep.adversaryRequests <= budget,
              "adversary overspent its budget (" + c.label + ")");
        check(c.rep.dormantAfterRewind == 0,
              "dormant damage survived a rewind (" + c.label + ")");
    }

    // The classic ladder performs no rewinds; every domain defense
    // must perform at least one.
    check(cells[0].rep.domainRewinds == 0,
          "classic ladder reported a domain rewind");
    for (std::size_t i = 1; i < nDefenses; ++i) {
        check(cells[i].rep.domainRewinds >= 1,
              "no confined rewind fired (" +
                  std::string(defenses[i].label) + ")");
    }

    // The attacker must actually land its loop against the classic
    // ladder, or the comparison is vacuous.
    check(cells[0].rep.reinfections >= 1,
          "reinfect adversary never re-infected the classic ladder");

    // The point of the scheme: confined rewind strictly beats full
    // rejuvenation on goodput at equal attack budget, at every
    // compartment count.
    for (std::size_t i = 1; i < nDefenses; ++i) {
        check(cells[i].rep.goodput() > cells[0].rep.goodput(),
              std::string(defenses[i].label) +
                  " did not strictly beat full rejuvenation's goodput");
    }

    return check.finish();
}
