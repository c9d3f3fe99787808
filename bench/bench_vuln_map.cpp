/**
 * @file
 * Vulnerability map over fault campaigns, with replay-based
 * root-cause analysis (src/rca).
 *
 * The sweep runs kind x rate x seed fault campaigns: each cell is a
 * check::Scenario armed with exactly one fault kind, executed twice —
 * once faulted, once on the fault-free golden twin via the replay
 * detector — and every divergence is attributed to the injection
 * site that caused it. Cells are pure values of their (kind, rate,
 * seed) triple and share nothing, so the ranked tables are
 * bit-identical for any --jobs count.
 *
 * The report ranks the six fault components by failures caused,
 * splitting each into detected-by-monitor (the system's own in-band
 * verdicts), detected-by-replay, escaped (in-band missed it), and
 * silent (only the final-state memory audit saw it), with detection
 * latency percentiles for the monitor path against the replay path.
 *
 * Every escaped cell is shrunk (greedy delta debugging preserving
 * "still escapes on the same component") to a minimal reproducer and
 * replayed from its JSON text; --repro-dir writes that text as
 * vuln_<kind>_r<rate>_s<seed>.json, which --replay re-runs exactly.
 *
 * Usage: bench_vuln_map [--jobs N] [--smoke]
 *                       [--seeds N] [--seed-base N] [--rates R[,R...]]
 *                       [--replay FILE] [--repro-dir DIR]
 *                       [--plant-escape] [--ablate K=V[,K=V...]]
 * --plant-escape is the rca sensitivity self-test: a monitor-miss
 * campaign guaranteed to produce an escaped failure, which must be
 * caught by the replay detector, shrunk, and round-tripped. --ablate
 * routes rca.* (and any other NodeConfig) dotted keys; unknown keys
 * are fatal, naming the key.
 *
 * Exit status 0 only when the run met its expectation (sweep: every
 * escaped cell yields a reproducer that round-trips; --smoke
 * additionally self-checks the latency ordering; --replay: the
 * recorded verdict reproduces).
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "rca/campaign.hh"
#include "rca/reproducer.hh"
#include "resilience/storm.hh"
#include "sim/random.hh"

using namespace indra;
using check::Scenario;
using rca::CampaignResult;
using rca::Failure;
using rca::RcaConfig;
using rca::Reproducer;

namespace
{

/**
 * The campaign scenario of one (kind, rate, seed) cell: a short
 * attack-heavy schedule against the scheme the kind targets, with
 * exactly that one fault armed. Small requests (6k instructions) and
 * a tight macro period keep every backup path hot so each kind has
 * real opportunities to fire.
 */
Scenario
makeCampaignScenario(faults::FaultKind kind, double rate,
                     std::uint64_t seed)
{
    Scenario sc;
    sc.seed = seed;
    sc.daemon = "httpd";
    sc.scheme = kind == faults::FaultKind::LogFlip
                    ? CheckpointScheme::MemoryUpdateLog
                    : CheckpointScheme::DeltaBackup;
    sc.instrPerRequest = 6000;
    sc.macroPeriod = 4;
    sc.failThreshold = 2;

    check::FaultSetting setting;
    setting.kind = kind;
    setting.rate = rate;
    // A fat verdict delay, so the in-band detection latency under
    // MonitorDelay is visibly worse than re-executing the window on
    // the golden twin.
    setting.magnitude =
        kind == faults::FaultKind::MonitorDelay ? 500000 : 0;
    sc.faults.push_back(setting);

    static constexpr net::AttackKind attacks[] = {
        net::AttackKind::StackSmash,   net::AttackKind::CodeInjection,
        net::AttackKind::FuncPtrHijack, net::AttackKind::FormatString,
        net::AttackKind::DosFlood,     net::AttackKind::Dormant,
    };
    Pcg32 rng(seed, 0x70a57e11ULL + static_cast<std::uint64_t>(kind));
    std::uint32_t nSteps = 10 + rng.nextBounded(3);
    for (std::uint32_t i = 0; i < nSteps; ++i) {
        check::ScenarioStep step;
        if (rng.bernoulli(0.5))
            step.attack = attacks[rng.nextBounded(6)];
        step.repeat = 1 + rng.nextBounded(2);
        sc.steps.push_back(step);
    }
    return sc;
}

/** The planted-escape sensitivity campaign. Every attack stream ends
 *  in an explicit crash, so no monitor miss can hide a failure
 *  in-band for long — the reliable escape class is corrupted backup
 *  state: a delta-backup bit flip restores wrong bytes past the
 *  checksum, the recovered request reports the same status as the
 *  golden run, and only re-execution (cycle skew, final image)
 *  exposes it. */
Scenario
plantEscapeScenario(std::uint64_t seed)
{
    return makeCampaignScenario(faults::FaultKind::DeltaFlip, 0.5,
                                seed);
}

/** One sweep cell: the campaign verdict of (kind, rate, seed). */
struct Cell
{
    faults::FaultKind kind = faults::FaultKind::TraceDrop;
    double rate = 0.0;
    std::uint64_t seed = 0;
    Scenario scenario;
    CampaignResult result;

    std::uint64_t
    escapes() const
    {
        std::uint64_t n = 0;
        for (const Failure &f : result.failures)
            n += f.escaped ? 1 : 0;
        return n;
    }
};

/** Per-component (and per-kind) aggregate of the whole sweep. */
struct Bucket
{
    std::uint64_t cells = 0;
    std::uint64_t injected = 0;
    std::uint64_t failures = 0;
    std::uint64_t detMonitor = 0;
    std::uint64_t detReplay = 0;
    std::uint64_t escaped = 0;
    std::uint64_t silent = 0;
    std::vector<Cycles> monitorLatency;
    std::vector<Cycles> replayLatency;

    void
    add(const Failure &f)
    {
        ++failures;
        detMonitor += f.detectedByMonitor ? 1 : 0;
        detReplay += f.detectedByReplay ? 1 : 0;
        escaped += f.escaped ? 1 : 0;
        silent += f.silent ? 1 : 0;
        if (f.detectedByMonitor && f.monitorLatency)
            monitorLatency.push_back(f.monitorLatency);
        if (f.detectedByReplay)
            replayLatency.push_back(f.replayLatency);
    }
};

void
printLatencyCols(std::ostream &os, const Bucket &b)
{
    auto col = [&os](std::vector<Cycles> samples, double p) {
        if (samples.empty())
            os << std::setw(10) << "-";
        else
            os << std::setw(10) << resilience::percentile(samples, p);
    };
    col(b.monitorLatency, 50);
    col(b.monitorLatency, 95);
    col(b.replayLatency, 50);
    col(b.replayLatency, 95);
}

std::string
reproName(const Cell &cell)
{
    std::ostringstream os;
    os << "vuln_" << faults::faultKindName(cell.kind) << "_r"
       << cell.rate << "_s" << cell.seed << ".json";
    return os.str();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli(
        "bench_vuln_map",
        "Component vulnerability map over kind x rate x seed fault "
        "campaigns, with replay-based root-cause analysis");
    bool smoke = false;
    bool plantEscape = false;
    std::string seedsOpt, seedBaseOpt, ratesOpt, replayPath, reproDir;
    cli.flag("--smoke", "CI-sized slice with self-checks", &smoke);
    cli.flag("--plant-escape",
             "rca sensitivity self-test (plant a monitor-miss escape, "
             "catch by replay, shrink, round-trip)",
             &plantEscape);
    cli.option("--seeds", "N", "campaign seeds per (kind, rate) "
               "(default 20; --smoke 50)", &seedsOpt);
    cli.option("--seed-base", "N", "first seed (default 1)",
               &seedBaseOpt);
    cli.option("--rates", "R[,R...]",
               "fault rates to sweep (default 0.1,0.5,1.0; --smoke "
               "0.5)", &ratesOpt);
    cli.option("--replay", "FILE", "re-run one reproducer JSON",
               &replayPath);
    cli.option("--repro-dir", "DIR",
               "write escaped-cell reproducers here", &reproDir);
    cli.ablateOption("dotted NodeConfig overrides (rca.* routes to the "
                     "campaign runner)");
    harness::ParallelSweep sweep(cli.parse(argc, argv));

    // rca.* keys ride the same dotted-key router as every other node
    // setting; unknown keys die here, naming the key. The smoke
    // defaults are seeded before the ablations so rca.* overrides
    // win.
    core::NodeConfig node;
    if (smoke) {
        node.rca.shrinkBudget = 24;
        node.rca.maxReproducers = 6;
    }
    core::applyNodeSettings(node, cli.ablations());
    RcaConfig rcfg = node.rca;

    // ------------------------------------------------------- replay
    if (!replayPath.empty()) {
        std::ifstream in(replayPath);
        fatal_if(!in, "cannot read reproducer ", replayPath);
        std::stringstream text;
        text << in.rdbuf();
        Reproducer rep = rca::reproducerFromJson(text.str());
        CampaignResult res;
        bool ok = rca::replayReproducer(rep, rcfg, &res);
        std::cout << "replay " << rep.scenario.describe() << ": "
                  << res.failures.size() << " failures, "
                  << rca::escapesFor(res, rep.component)
                  << " escaped on "
                  << faults::faultComponentName(rep.component)
                  << " (expected " << rep.expectEscapes << ") -> "
                  << (ok ? "reproduced" : "MISMATCH") << "\n";
        return ok ? 0 : 1;
    }

    // ------------------------------------------------ plant-escape
    if (plantEscape) {
        std::uint64_t seed =
            benchutil::optionU64("--seed-base", seedBaseOpt, 1);
        Scenario sc = plantEscapeScenario(seed);
        CampaignResult res = rca::runCampaign(sc, rcfg);
        std::uint64_t escapes = 0;
        for (const Failure &f : res.failures)
            escapes += f.escaped ? 1 : 0;
        std::cout << "planted " << sc.describe() << ": "
                  << res.failures.size() << " failures, " << escapes
                  << " escaped\n";
        if (!escapes) {
            std::cout << "FAIL: the planted monitor-miss campaign "
                         "produced no escaped failure\n";
            return 1;
        }
        Reproducer rep = rca::makeReproducer(sc, res);
        Reproducer shrunk = rca::shrinkReproducer(rep, rcfg);
        std::cout << "shrunk  " << shrunk.scenario.describe() << ": "
                  << shrunk.scenario.requestCount() << " requests ("
                  << sc.requestCount() << " before, "
                  << shrunk.shrinkRuns << " runs)\n";
        if (!rca::replayReproducer(shrunk, rcfg)) {
            std::cout << "FAIL: shrunk reproducer did not replay to "
                         "the same verdict\n";
            return 1;
        }
        if (!reproDir.empty()) {
            std::string path = reproDir + "/planted_escape.json";
            std::ofstream out(path);
            fatal_if(!out, "cannot write reproducer ", path);
            out << rca::reproducerToJson(shrunk);
            std::cout << "reproducer written: " << path << "\n";
        }
        std::cout << "ok: planted escape caught by replay, shrunk, "
                     "and round-tripped\n";
        return 0;
    }

    // --------------------------------------------------- the sweep
    const std::uint64_t seedBase =
        benchutil::optionU64("--seed-base", seedBaseOpt, 1);
    const std::uint64_t nSeeds =
        benchutil::optionU64("--seeds", seedsOpt, smoke ? 50 : 20);
    std::vector<double> rates;
    for (const std::string &tok :
         benchutil::splitList(ratesOpt.empty()
                                  ? (smoke ? "0.5" : "0.1,0.5,1.0")
                                  : ratesOpt))
        rates.push_back(parseF64("--rates", tok, 0.0, 1.0));

    const auto &kinds = faults::allFaultKinds();
    const std::size_t nCells = kinds.size() * rates.size() * nSeeds;

    std::cout << "vulnerability map: " << kinds.size() << " fault "
              << "kinds x " << rates.size() << " rates x " << nSeeds
              << " seeds from " << seedBase << " ("
              << rca::describeRcaConfig(rcfg) << ")\n";
    if (!cli.ablateSpec().empty())
        std::cout << "ablations: " << cli.ablateSpec() << "\n";
    std::cout << "\n";

    auto cells = sweep.run(nCells, [&](std::size_t i) {
        std::size_t kindIdx = i / (rates.size() * nSeeds);
        std::size_t rem = i % (rates.size() * nSeeds);
        Cell cell;
        cell.kind = kinds[kindIdx];
        cell.rate = rates[rem / nSeeds];
        cell.seed = seedBase + rem % nSeeds;
        cell.scenario =
            makeCampaignScenario(cell.kind, cell.rate, cell.seed);
        cell.result = rca::runCampaign(cell.scenario, rcfg);
        return cell;
    });

    // ------------------------------------------------- aggregation
    std::vector<Bucket> byComponent(faults::faultComponentCount);
    std::vector<Bucket> byKind(faults::faultKindCount);
    std::uint64_t totalInjected = 0, totalFailures = 0,
                  totalEscaped = 0, memoryDiverged = 0;
    for (const Cell &cell : cells) {
        Bucket &kb = byKind[static_cast<std::size_t>(cell.kind)];
        ++kb.cells;
        kb.injected += cell.result.injectedTotal;
        totalInjected += cell.result.injectedTotal;
        memoryDiverged += cell.result.memoryDiverged ? 1 : 0;
        Bucket &cb = byComponent[static_cast<std::size_t>(
            faults::componentOf(cell.kind))];
        ++cb.cells;
        cb.injected += cell.result.injectedTotal;
        for (const Failure &f : cell.result.failures) {
            ++totalFailures;
            totalEscaped += f.escaped ? 1 : 0;
            kb.add(f);
            byComponent[static_cast<std::size_t>(
                            f.hasSite ? f.component
                                      : faults::componentOf(cell.kind))]
                .add(f);
        }
    }

    // -------------------------------------- ranked component table
    std::vector<std::size_t> rank(faults::faultComponentCount);
    for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = i;
    std::stable_sort(rank.begin(), rank.end(),
                     [&](std::size_t a, std::size_t b) {
                         return byComponent[a].failures >
                                byComponent[b].failures;
                     });

    std::cout << std::left << std::setw(18) << "component"
              << std::right << std::setw(9) << "injected"
              << std::setw(9) << "failures" << std::setw(9)
              << "det_mon" << std::setw(9) << "det_rep"
              << std::setw(9) << "escaped" << std::setw(8) << "silent"
              << std::setw(10) << "mon_p50" << std::setw(10)
              << "mon_p95" << std::setw(10) << "rep_p50"
              << std::setw(10) << "rep_p95" << "\n";
    for (std::size_t idx : rank) {
        const Bucket &b = byComponent[idx];
        std::cout << std::left << std::setw(18)
                  << faults::faultComponentName(
                         faults::allFaultComponents()[idx])
                  << std::right << std::setw(9) << b.injected
                  << std::setw(9) << b.failures << std::setw(9)
                  << b.detMonitor << std::setw(9) << b.detReplay
                  << std::setw(9) << b.escaped << std::setw(8)
                  << b.silent;
        printLatencyCols(std::cout, b);
        std::cout << "\n";
    }

    std::cout << "\n" << std::left << std::setw(18) << "fault kind"
              << std::right << std::setw(7) << "cells"
              << std::setw(9) << "injected" << std::setw(9)
              << "failures" << std::setw(9) << "det_mon"
              << std::setw(9) << "escaped" << "\n";
    for (std::size_t i = 0; i < byKind.size(); ++i) {
        const Bucket &b = byKind[i];
        std::cout << std::left << std::setw(18)
                  << faults::faultKindName(kinds[i]) << std::right
                  << std::setw(7) << b.cells << std::setw(9)
                  << b.injected << std::setw(9) << b.failures
                  << std::setw(9) << b.detMonitor << std::setw(9)
                  << b.escaped << "\n";
    }

    std::cout << "\n" << nCells << " campaigns, " << totalInjected
              << " injections, " << totalFailures << " failures, "
              << totalEscaped << " escaped, " << memoryDiverged
              << " memory-diverged\n";

    // --------------------------- reproducers for escaped cells
    // Serial and in cell order: the shrinker's evaluation sequence
    // is part of the deterministic output contract. Every escaped
    // cell yields a reproducer and an in-process round trip; the
    // expensive greedy shrink runs on the first rca.max_reproducers
    // of them (0 = all).
    std::uint64_t escapedCells = 0, reproduced = 0,
                  roundTripFailed = 0, shrunkCells = 0;
    for (const Cell &cell : cells) {
        if (!cell.escapes())
            continue;
        ++escapedCells;
        Reproducer rep =
            rca::makeReproducer(cell.scenario, cell.result);
        bool doShrink = !rcfg.maxReproducers ||
                        shrunkCells < rcfg.maxReproducers;
        if (doShrink) {
            ++shrunkCells;
            rep = rca::shrinkReproducer(rep, rcfg);
        }
        // Replay what --repro-dir writes, so the round trip also
        // covers the JSON serializer and reader.
        std::string json = rca::reproducerToJson(rep);
        bool ok =
            rca::replayReproducer(rca::reproducerFromJson(json), rcfg);
        reproduced += ok ? 1 : 0;
        roundTripFailed += ok ? 0 : 1;
        std::cout << "escape "
                  << faults::faultComponentName(rep.component)
                  << " s" << cell.seed << " r" << cell.rate << ": "
                  << cell.scenario.requestCount() << " -> "
                  << rep.scenario.requestCount() << " requests ("
                  << (doShrink ? "shrunk, " : "unshrunk, ")
                  << rep.shrinkRuns << " runs) "
                  << (ok ? "round-trip ok" : "ROUND-TRIP MISMATCH")
                  << "\n";
        if (!reproDir.empty()) {
            std::string path = reproDir + "/" + reproName(cell);
            std::ofstream out(path);
            fatal_if(!out, "cannot write reproducer ", path);
            out << json;
        }
    }
    if (escapedCells)
        std::cout << escapedCells << " escaped cells, " << shrunkCells
                  << " shrunk, " << reproduced
                  << " round-tripped\n";

    bool failed = roundTripFailed != 0;

    // ------------------------------------------- smoke self-checks
    if (smoke) {
        const Bucket &verdictBucket = byComponent[static_cast<
            std::size_t>(faults::FaultComponent::MonitorVerdict)];
        if (verdictBucket.monitorLatency.empty() ||
            verdictBucket.replayLatency.empty()) {
            std::cout << "SMOKE FAIL: no monitor-verdict latency "
                         "samples to compare\n";
            failed = true;
        } else {
            Cycles monP50 = resilience::percentile(
                verdictBucket.monitorLatency, 50);
            Cycles repP50 = resilience::percentile(
                verdictBucket.replayLatency, 50);
            std::cout << "smoke: monitor-verdict detection p50 "
                      << monP50 << " (in-band) vs " << repP50
                      << " (replay)\n";
            if (repP50 >= monP50) {
                std::cout << "SMOKE FAIL: replay detection is not "
                             "strictly faster than the delayed "
                             "in-band verdict\n";
                failed = true;
            }
        }
        if (totalEscaped == 0) {
            std::cout << "SMOKE FAIL: no fault class escaped the "
                         "in-band monitors (replay found nothing "
                         "they missed)\n";
            failed = true;
        }
        if (!failed)
            std::cout << "smoke: self-checks ok\n";
    }
    return failed ? 1 : 0;
}
