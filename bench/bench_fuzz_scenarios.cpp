/**
 * @file
 * Deterministic scenario fuzzer for the differential oracle
 * (src/check): each seed derives a complete Scenario — daemon,
 * checkpoint scheme, fault plan, attack schedule, optional storm —
 * runs it with the SystemChecker attached, and reports any oracle
 * violation. Scenarios are pure values of their seed and the sweep
 * cells share nothing, so the table is bit-identical for any --jobs
 * count.
 *
 * On a violation the first failing scenario is shrunk (greedy delta
 * debugging, preserving the violated invariant) to a minimal
 * reproducer and written as a JSON file that --replay re-runs
 * exactly.
 *
 * Usage: bench_fuzz_scenarios [--jobs N] [--smoke]
 *                             [--seeds N] [--seed-base N]
 *                             [--replay FILE] [--out FILE]
 *                             [--plant-bug] [--plant-domain-bug]
 * --plant-bug is the oracle's own sensitivity test: it corrupts one
 * byte behind the backup engine's back, expects the oracle to catch
 * the inexact rollback, and requires the shrunk reproducer to stay
 * small. --plant-domain-bug runs the same flip under the
 * domain-rewind scheme and additionally requires the catching
 * invariant to be domain-rewind-confined — the confined rewind must
 * neither repair nor excuse a byte outside its compartment. Exit
 * status is 0 only when the run met its expectation (fuzz/replay: no
 * violation; plant modes: caught and shrunk).
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "check/scenario.hh"

using namespace indra;
using check::Scenario;
using check::ScenarioVerdict;
using check::ShrinkResult;

namespace
{

/** One deterministic, grep-able line per scenario run. */
std::string
verdictLine(const Scenario &sc, const ScenarioVerdict &v)
{
    std::ostringstream os;
    os << sc.describe() << ": ";
    if (v.violated) {
        os << "VIOLATED " << check::invariantName(v.invariant)
           << " epoch=" << v.epoch << " (" << v.detail << ")";
    } else {
        os << "ok";
    }
    os << " [requests=" << v.requests << " checks=" << v.checks
       << " violations=" << v.violations << "]";
    return os.str();
}

void
writeReproducer(const Scenario &sc, const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot write reproducer ", path);
    out << sc.toJson();
    std::cout << "reproducer written: " << path
              << " (re-run with --replay " << path << ")\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli(
        "bench_fuzz_scenarios",
        "Deterministic oracle fuzzing with shrinking reproducers");
    bool smoke = false;
    bool plantBug = false;
    bool plantDomainBug = false;
    std::string seedsOpt, seedBaseOpt, replayPath, outPath;
    cli.flag("--smoke", "CI-sized seed budget", &smoke);
    cli.flag("--plant-bug",
             "oracle sensitivity self-test (plant, catch, shrink)",
             &plantBug);
    cli.flag("--plant-domain-bug",
             "confined-rewind sensitivity self-test "
             "(plant under domain-rewind, catch, shrink)",
             &plantDomainBug);
    cli.option("--seeds", "N", "number of fuzz seeds (default 200)",
               &seedsOpt);
    cli.option("--seed-base", "N", "first seed (default 1)",
               &seedBaseOpt);
    cli.option("--replay", "FILE", "re-run one reproducer JSON",
               &replayPath);
    cli.option("--out", "FILE",
               "reproducer output path (default fuzz_reproducer.json)",
               &outPath);
    harness::ParallelSweep sweep(cli.parse(argc, argv));

    const std::uint64_t seedBase =
        benchutil::optionU64("--seed-base", seedBaseOpt, 1);
    const std::uint64_t nSeeds =
        benchutil::optionU64("--seeds", seedsOpt, smoke ? 12 : 200);
    const std::uint64_t shrinkBudget = smoke ? 80 : 200;
    if (outPath.empty())
        outPath = "fuzz_reproducer.json";

    // ------------------------------------------------------- replay
    if (!replayPath.empty()) {
        std::ifstream in(replayPath);
        fatal_if(!in, "cannot read reproducer ", replayPath);
        std::stringstream text;
        text << in.rdbuf();
        Scenario sc = Scenario::fromJson(text.str());
        ScenarioVerdict v = check::runScenario(sc);
        std::cout << "replay " << verdictLine(sc, v) << "\n";
        return v.violated ? 1 : 0;
    }

    // ---------------------------------------------------- plant-bug
    if (plantBug || plantDomainBug) {
        Scenario sc = plantDomainBug
            ? check::makePlantedDomainScenario(seedBase)
            : check::makePlantedScenario(seedBase);
        ScenarioVerdict v = check::runScenario(sc);
        std::cout << "planted " << verdictLine(sc, v) << "\n";
        if (!v.violated) {
            std::cout << "FAIL: the oracle missed the planted "
                         "rollback bug\n";
            return 1;
        }
        if (plantDomainBug &&
            v.invariant != check::InvariantId::DomainRewindConfined) {
            std::cout << "FAIL: expected domain-rewind-confined to "
                         "catch the plant, got "
                      << check::invariantName(v.invariant) << "\n";
            return 1;
        }
        ShrinkResult shrunk = check::shrinkScenario(
            sc, v, check::runScenario, shrinkBudget);
        std::cout << "shrunk  " << verdictLine(shrunk.scenario,
                                               shrunk.verdict)
                  << "\n"
                  << "shrink: " << sc.requestCount() << " -> "
                  << shrunk.scenario.requestCount()
                  << " requests in " << shrunk.runsUsed << " runs\n";
        writeReproducer(shrunk.scenario, outPath);
        if (shrunk.scenario.requestCount() > 10) {
            std::cout << "FAIL: reproducer did not shrink below 10 "
                         "requests\n";
            return 1;
        }
        std::cout << "ok: planted bug caught and shrunk\n";
        return 0;
    }

    // --------------------------------------------------- fuzz sweep
    std::cout << "fuzzing " << nSeeds << " scenario seeds from "
              << seedBase << "\n";
    struct Cell
    {
        Scenario scenario;
        ScenarioVerdict verdict;
    };
    auto cells = sweep.run(
        static_cast<std::size_t>(nSeeds), [&](std::size_t i) {
            Cell cell;
            cell.scenario = check::makeScenario(seedBase + i);
            cell.verdict = check::runScenario(cell.scenario);
            return cell;
        });

    std::uint64_t checks = 0, requests = 0, bad = 0;
    const Cell *firstBad = nullptr;
    for (const Cell &c : cells) {
        std::cout << verdictLine(c.scenario, c.verdict) << "\n";
        checks += c.verdict.checks;
        requests += c.verdict.requests;
        if (c.verdict.violated) {
            ++bad;
            if (!firstBad)
                firstBad = &c;
        }
    }
    std::cout << "\n" << nSeeds << " scenarios, " << requests
              << " requests, " << checks << " oracle checks, " << bad
              << " violating\n";

    if (firstBad) {
        ShrinkResult shrunk = check::shrinkScenario(
            firstBad->scenario, firstBad->verdict, check::runScenario,
            shrinkBudget);
        std::cout << "shrunk  " << verdictLine(shrunk.scenario,
                                               shrunk.verdict)
                  << "\n";
        writeReproducer(shrunk.scenario, outPath);
        return 1;
    }
    return 0;
}
