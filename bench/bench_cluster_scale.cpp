/**
 * @file
 * Cluster-scale serving sweep: goodput and recovery tails vs fleet
 * size and resurrector:resurrectee ratio under correlated attack
 * storms.
 *
 * Each cell builds a ClusterSim: Zipf-skewed synthetic users sharded
 * across a fleet of revivable nodes behind token-bucket links, every
 * node running the same adaptive attack storm in phase (the
 * correlated worst case for a shared recovery pool), and all macro
 * restores / rejuvenations contending for an M:N resurrector pool
 * sized ratio * nodes. The cluster interleaves its nodes on the
 * bench's ParallelSweep; one fixed-seed cell is bit-identical for any
 * --jobs count.
 *
 * Reported per cell:
 *   goodput   served legitimate requests per Mcycle, fleet-wide
 *   raw_tput  executed requests (attacks included) per Mcycle
 *   shed_rate sheds / (sheds + legit arrivals)
 *   p99       legit response time p99, cycles
 *   rec_p99   recovery latency p99 including pool queueing, cycles
 *   wait_p99  pool queueing delay p99, cycles
 *   grants    pool grants (queued grants in parens)
 *   reinf     re-infections across the fleet
 *   imbal     max/mean node arrivals (Zipf + hash sharding skew)
 *
 * Usage: bench_cluster_scale [--jobs N] [--smoke]
 *                            [--nodes N[,N...]] [--ratio R[,R...]]
 *                            [--zipf THETA] [--users N]
 *                            [--ablate K=V[,K=V...]]
 * --ablate routes dotted NodeConfig keys (SystemConfig fields,
 * faults.plan, adversary./rejuvenation./resilience./domain.*) into
 * every node of every cell.
 * --smoke runs a CI-sized slice and self-checks the headline claims:
 * goodput degrades gracefully (no cliff) as the pool ratio shrinks,
 * recovery p99 and pool wait p99 grow monotonically with pool
 * contention, and the Zipf sharder produces visible imbalance.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "storm_recipe.hh"

using namespace indra;

namespace
{

struct Cell
{
    std::uint32_t nodes = 0;
    double ratio = 0.0;
    cluster::ClusterReport rep;
};

resilience::StormPlan
stormPlan(bool smoke)
{
    // The adaptive attacker from the survivability matrix, striking
    // every node of the fleet in phase; legit load arrives through
    // the balancer, over a longer deadline.
    resilience::StormPlan plan = benchutil::adaptiveStorm(
        adversary::AdversaryStrategy::Reinfect, smoke ? 24 : 60, 0);
    plan.deadline = 8000000;
    return plan;
}

std::uint32_t
poolSlotsFor(std::uint32_t nodes, double ratio)
{
    double slots = ratio * static_cast<double>(nodes);
    auto rounded = static_cast<std::uint32_t>(slots + 0.5);
    return std::max(1u, rounded);
}

Cell
runCell(std::uint32_t nodes, double ratio,
        const benchutil::ClusterOptions &copts,
        const std::vector<std::string> &ablations, bool smoke,
        harness::ParallelSweep &sweep)
{
    core::NodeConfig node(benchutil::stormSystem(), {},
                          benchutil::stormDefense());
    core::applyNodeSettings(node, ablations);

    cluster::ClusterConfig cc;
    cc.nodes = nodes;
    cc.poolSlots = poolSlotsFor(nodes, ratio);
    cc.users = copts.users(smoke ? 20000 : 200000);
    cc.zipfTheta = copts.zipfTheta(0.99);
    cc.requests = (smoke ? 220ULL : 900ULL) * nodes;
    cc.arrivalRatePerMCycle = 1.2 * nodes;
    cc.seed = 1;
    cc.link.ratePerMCycle = 40.0;

    cluster::ClusterSim sim(node, stormPlan(smoke), cc,
                            benchutil::stormDaemon("httpd"));
    Cell cell;
    cell.nodes = nodes;
    cell.ratio = ratio;
    cell.rep = sim.run(sweep);
    return cell;
}

void
printCell(const Cell &c)
{
    const cluster::ClusterReport &r = c.rep;
    double shed_rate =
        r.shedTotal + r.legitArrivals
            ? static_cast<double>(r.shedTotal) /
                  static_cast<double>(r.shedTotal + r.legitArrivals)
            : 0.0;
    std::ostringstream label;
    label << c.nodes << "n:" << std::fixed << std::setprecision(3)
          << c.ratio << " (" << r.poolSlots << "s)";
    std::ostringstream grants;
    grants << r.poolGrants << "(" << r.poolQueuedGrants << ")";
    std::cout << std::left << std::setw(18) << label.str()
              << std::right << std::setw(9) << std::fixed
              << std::setprecision(3) << r.goodput()
              << std::setw(9) << r.rawThroughput()
              << std::setw(10) << shed_rate
              << std::setw(11) << r.legitP99
              << std::setw(12) << r.recoveryP99
              << std::setw(11) << r.poolWaitP99
              << std::setw(10) << grants.str()
              << std::setw(7) << r.reinfections
              << std::setw(8) << std::setprecision(3)
              << r.arrivalImbalance() << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli(
        "bench_cluster_scale",
        "Fleet sweep: goodput and recovery p99 vs node count and "
        "resurrector:resurrectee ratio under correlated storms");
    bool smoke = false;
    benchutil::ClusterOptions copts;
    cli.flag("--smoke", "CI-sized slice with self-checks", &smoke);
    cli.ablateOption("dotted NodeConfig overrides applied to every node "
                     "of every cell");
    cli.clusterPreset(&copts);
    harness::ParallelSweep sweep(cli.parse(argc, argv));
    const std::vector<std::string> ablations = cli.ablations();

    std::vector<std::uint32_t> nodeAxis = copts.nodeCounts(
        smoke ? std::vector<std::uint32_t>{4}
              : std::vector<std::uint32_t>{2, 4, 8, 16});
    std::vector<double> ratioAxis = copts.ratios(
        smoke ? std::vector<double>{1.0, 0.5, 0.25}
              : std::vector<double>{1.0, 0.5, 0.25, 0.125});

    benchutil::printHeader(
        "Cluster scale: fleet size x resurrector pool ratio",
        benchutil::stormSystem());
    if (!ablations.empty())
        std::cout << "ablations: " << cli.ablateSpec() << "\n\n";
    std::cout << std::left << std::setw(18) << "cell" << std::right
              << std::setw(9) << "goodput"
              << std::setw(9) << "raw_tput"
              << std::setw(10) << "shed_rate"
              << std::setw(11) << "p99"
              << std::setw(12) << "rec_p99"
              << std::setw(11) << "wait_p99"
              << std::setw(10) << "grants"
              << std::setw(7) << "reinf"
              << std::setw(8) << "imbal" << "\n";

    // The outer sweep is serial: each cell's ClusterSim interleaves
    // its own nodes on the (possibly parallel) sweep, and the cells
    // print in axis order either way.
    std::vector<Cell> cells;
    for (std::uint32_t nodes : nodeAxis) {
        for (double ratio : ratioAxis) {
            cells.push_back(runCell(nodes, ratio, copts, ablations,
                                    smoke, sweep));
            printCell(cells.back());
        }
    }

    if (!smoke)
        return 0;

    // ------------------------------------------------- self checks
    benchutil::SmokeChecks check;

    // Per fleet size, walk the ratio axis from the richest pool to
    // the most starved (ratios descend by construction).
    for (std::size_t base = 0; base < cells.size();
         base += ratioAxis.size()) {
        const Cell &rich = cells[base];
        const Cell &starved = cells[base + ratioAxis.size() - 1];
        std::string tag = std::to_string(rich.nodes) + " nodes";

        // The storms landed and the pool actually arbitrated.
        check(rich.rep.attackArrivals > 0,
              "no attacks reached the fleet (" + tag + ")");
        check(starved.rep.poolQueuedGrants > 0,
              "starved pool never queued a restore (" + tag + ")");

        // Graceful degradation: shrinking the pool costs goodput but
        // does not collapse it (no cliff).
        check(starved.rep.goodput() <=
                  rich.rep.goodput() * 1.02 + 1e-9,
              "starving the pool should not raise goodput (" + tag +
                  ")");
        check(starved.rep.goodput() >= 0.5 * rich.rep.goodput(),
              "goodput fell off a cliff as the pool starved (" + tag +
                  ")");

        // Contention tails: pool wait p99 grows monotonically as the
        // ratio shrinks, and the recovery tail grows with it.
        for (std::size_t r = 1; r < ratioAxis.size(); ++r) {
            const Cell &prev = cells[base + r - 1];
            const Cell &cur = cells[base + r];
            check(cur.rep.poolWaitP99 >= prev.rep.poolWaitP99,
                  "pool wait p99 shrank as the pool starved (" + tag +
                      ")");
            check(cur.rep.recoveryP99 >= prev.rep.recoveryP99,
                  "recovery p99 shrank as the pool starved (" + tag +
                      ")");
        }
        check(starved.rep.recoveryP99 > rich.rep.recoveryP99,
              "pool contention never showed up in recovery p99 (" +
                  tag + ")");
    }

    // The Zipf sharder skews load: some node sees measurably more
    // than the mean.
    bool skewed = false;
    for (const Cell &c : cells)
        skewed = skewed || c.rep.arrivalImbalance() > 1.02;
    check(skewed, "Zipf sharding produced no visible imbalance");

    // The fleet stayed up: even the starved cells keep serving a
    // substantial fraction of the legit load under the correlated
    // worst-case storm (graceful degradation, not collapse).
    for (const Cell &c : cells) {
        check(c.rep.legitServed * 3 > c.rep.legitArrivals,
              "a cell collapsed under the correlated storm");
    }

    return check.finish();
}
