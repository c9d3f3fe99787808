/**
 * @file
 * Overload storm: sweep attack-arrival rate x burst length x queue
 * bound x daemon and measure how the resilience layer degrades —
 * goodput instead of collapse, typed sheds instead of unbounded
 * queueing, and a full revival cycle under a persistent storm.
 *
 * Every cell is a pure function of (config, ResilienceConfig,
 * StormPlan, FaultPlan): arrivals, backoff jitter, and fault draws
 * all come from seeded PCG32 streams and cells share nothing, so the
 * table is bit-identical for any --jobs count.
 *
 * Reported per cell:
 *   goodput     served legitimate requests per Mcycle
 *   raw_tput    executed requests (attacks included) per Mcycle
 *   shed_rate   sheds / (sheds + executed)
 *   p50/p99     legit response time percentiles, cycles
 *   t_degr      fraction of the run spent outside Healthy
 *   cyc         completed Healthy->...->Healthy revival cycles
 *   req_rev     executed requests from health departure to revival
 *
 * A queue bound of 0 runs the control: resilience fully disarmed, no
 * guard object, the pre-resilience code path.
 *
 * Usage: bench_overload_storm [--jobs N] [--smoke] [--faults SPEC]
 * --smoke runs a CI-sized subset plus a rejuvenation scenario
 * (macro-corrupt:1.0) and self-checks: goodput monotonically
 * non-increasing in attack rate, nonzero sheds when the bound binds,
 * and at least one full revival cycle.
 */

#include <string>
#include <vector>

#include "faults/fault_plan.hh"
#include "storm_recipe.hh"

using namespace indra;

namespace
{

struct StormCell
{
    std::string label;
    resilience::StormReport rep;
    bool armed = false;
};

struct CellParams
{
    std::string daemon;
    double attackRate = 0;
    std::uint32_t burst = 1;
    std::uint32_t bound = 0;
};

SystemConfig
baseConfig()
{
    // The storm node at SystemConfig's default macro period and
    // rejuvenation price, which this bench's tables are measured at.
    // The recipe's 4-failure threshold keeps the quarantine stage
    // observable: the health machine must reach Quarantined before
    // the recovery ladder escalates past micro recovery.
    SystemConfig cfg = benchutil::stormSystem();
    cfg.macroCheckpointPeriod = SystemConfig().macroCheckpointPeriod;
    cfg.rejuvenationCycles = SystemConfig().rejuvenationCycles;
    return cfg;
}

StormCell
runCell(const CellParams &p, std::uint64_t legit_requests,
        bool plant_dormant, const faults::FaultPlan &fplan,
        benchutil::CellObs cell_obs)
{
    // A queue bound of 0 is the disarmed control.
    resilience::ResilienceConfig rc;
    if (p.bound != 0) {
        rc = benchutil::stormDefense();
        rc.queueBound = p.bound;
        rc.fifoHighWater = 48;
    }
    resilience::StormPlan plan = benchutil::staticStorm(legit_requests);
    plan.attackRatePerMCycle = p.attackRate;
    plan.burstLen = p.burst;
    plan.plantDormant = plant_dormant;

    StormCell cell;
    cell.armed = p.bound != 0;
    cell.label = p.daemon + ":a" + std::to_string(int(p.attackRate)) +
                 ":b" + std::to_string(p.burst) + ":q" +
                 std::to_string(p.bound);
    cell.rep = benchutil::runStormCell(
        core::NodeConfig(baseConfig(), fplan, rc), p.daemon, plan,
        cell_obs, cell.label);
    return cell;
}

void
printCell(const StormCell &c)
{
    const resilience::StormReport &r = c.rep;
    double degraded = 0;
    if (r.endTick != 0) {
        degraded = 1.0 -
            static_cast<double>(r.timeIn[static_cast<std::size_t>(
                resilience::HealthState::Healthy)]) /
                static_cast<double>(r.endTick);
    }
    std::cout << std::left << std::setw(20) << c.label << std::right
              << std::setw(10) << std::fixed << std::setprecision(3)
              << r.goodput()
              << std::setw(10) << r.rawThroughput()
              << std::setw(10) << benchutil::shedRate(r)
              << std::setw(10) << r.legitP50
              << std::setw(11) << r.legitP99
              << std::setw(8) << std::setprecision(3)
              << (c.armed ? degraded : 0.0)
              << std::setw(5) << r.fullCycles
              << std::setw(9) << r.requestsToRevival << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench(
        "bench_overload_storm",
        "Graceful degradation under attack storms: admission control, "
        "health state machine, goodput vs raw throughput");
    bool smoke = false;
    std::string fault_spec;
    bench.cli.flag("--smoke",
                   "CI-sized subset plus revival scenario, with "
                   "self-checks",
                   &smoke);
    bench.cli.option("--faults", "KIND:RATE[:MAG][,...]",
                     "compose an injected-fault plan into every cell",
                     &fault_spec);
    bench.parse(argc, argv);

    faults::FaultPlan fplan;
    if (!fault_spec.empty())
        fplan = faults::FaultPlan::parse(fault_spec);

    const std::vector<std::string> daemons =
        smoke ? std::vector<std::string>{"httpd"}
              : std::vector<std::string>{"httpd", "bind"};
    const std::vector<double> rates =
        smoke ? std::vector<double>{0.0, 2.0, 8.0}
              : std::vector<double>{0.0, 1.0, 4.0, 16.0};
    const std::vector<std::uint32_t> bursts =
        smoke ? std::vector<std::uint32_t>{4}
              : std::vector<std::uint32_t>{1, 8};
    const std::vector<std::uint32_t> bounds =
        smoke ? std::vector<std::uint32_t>{6}
              : std::vector<std::uint32_t>{0, 8};
    const std::uint64_t legit_requests = smoke ? 60 : 160;

    benchutil::printHeader(
        "Overload storm: goodput and graceful degradation",
        baseConfig());
    if (!fault_spec.empty())
        std::cout << "fault plan: " << fplan.describe() << "\n\n";
    std::cout << std::left << std::setw(20) << "cell" << std::right
              << std::setw(10) << "goodput"
              << std::setw(10) << "raw_tput"
              << std::setw(10) << "shed_rate"
              << std::setw(10) << "p50"
              << std::setw(11) << "p99"
              << std::setw(8) << "t_degr"
              << std::setw(5) << "cyc"
              << std::setw(9) << "req_rev" << "\n";

    std::size_t n =
        daemons.size() * rates.size() * bursts.size() * bounds.size();
    // The smoke run adds cell n, the revival scenario: a persistent
    // storm with a dormant plant, against a backup engine whose macro
    // restores are corrupted. Probes crash on the surfaced damage
    // while quarantined, the ladder escalates through the failed
    // macro restore to rejuvenation, and the reborn service's first
    // served probe closes the cycle.
    auto cells = bench.run(
        n + (smoke ? 1 : 0),
        [&](std::size_t i, benchutil::CellObs cell_obs) {
            if (i == n) {
                return runCell({.daemon = "httpd", .attackRate = 8.0,
                                .burst = 4, .bound = 6},
                               legit_requests, true,
                               faults::FaultPlan::parse("macro-corrupt:1.0"),
                               cell_obs);
            }
            CellParams p;
            p.daemon = daemons[i % daemons.size()];
            std::size_t rest = i / daemons.size();
            p.bound = bounds[rest % bounds.size()];
            rest /= bounds.size();
            p.burst = bursts[rest % bursts.size()];
            p.attackRate = rates[rest / bursts.size()];
            return runCell(p, legit_requests, false, fplan, cell_obs);
        });

    for (std::size_t i = 0; i < n; ++i)
        printCell(cells[i]);

    if (!smoke)
        return 0;

    const StormCell &rc = cells[n];
    std::cout << "\nrevival scenario (dormant plant, "
                 "macro-corrupt:1.0):\n";
    printCell(rc);

    // ------------------------------------------------- self checks
    benchutil::SmokeChecks check;

    // Goodput must not rise as the attack rate rises (same daemon,
    // burst, and bound). Cell index i = rate-major per the unpacking
    // above, so consecutive rate groups are strided.
    std::size_t group = daemons.size() * bounds.size() * bursts.size();
    for (std::size_t g = 0; g < group; ++g) {
        for (std::size_t r = 1; r < rates.size(); ++r) {
            double prev = cells[(r - 1) * group + g].rep.goodput();
            double cur = cells[r * group + g].rep.goodput();
            check(cur <= prev + 1e-9,
                  "goodput rose with attack rate (" +
                      cells[r * group + g].label + ")");
        }
    }

    // The bound must actually shed under the heaviest storm.
    const StormCell &heavy = cells[n - 1];
    check(heavy.rep.shedTotal() > 0,
          "no sheds despite a bounded queue under max attack rate");

    // The revival scenario must walk the whole state machine.
    check(rc.rep.fullCycles >= 1,
          "no full Healthy->Degraded->Quarantined->Rejuvenating->"
          "Healthy cycle in the revival scenario");

    return check.finish();
}
