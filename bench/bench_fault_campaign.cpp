/**
 * @file
 * Fault campaign: sweep injected component failures (fault kind x
 * rate x seed) across daemon profiles and measure how the detection
 * and recovery machinery degrades — the dependability claim of
 * Sections 3.3.2-3.3.3 exercised under adversarial component failure
 * instead of the usual perfect-component assumption.
 *
 * Every cell is a pure function of (config, FaultPlan, script): the
 * injector draws from per-kind PCG32 streams and the sweep cells
 * share nothing, so the table is bit-identical for any --jobs count.
 *
 * Reported per cell:
 *   injected      faults the injector actually fired
 *   corrupt_det   backup corruption events caught by checksum
 *   det_rate      attacks detected by the monitor / attacks sent
 *   recov_rate    answered requests / total (availability)
 *   micro/macro/rejuv   recoveries by escalation level
 *   esc           escalations (integrity + macro-restore failures)
 *   req_to_rev    mean requests from a failure to the next served one
 *
 * Usage: bench_fault_campaign [--jobs N] [--smoke]
 * --smoke runs a single-seed single-daemon subset (one rate per
 * kind) sized for CI and the sanitizer builds.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "faults/fault_plan.hh"

using namespace indra;
using faults::FaultKind;
using faults::FaultPlan;

namespace
{

struct CampaignCell
{
    std::string label;
    std::uint64_t injected = 0;
    std::uint64_t corruptDetected = 0;
    double detectionRate = 0;
    double recoveryRate = 0;
    std::uint64_t micro = 0;
    std::uint64_t macro = 0;
    std::uint64_t rejuv = 0;
    std::uint64_t escalations = 0;
    double reqToRevival = 0;
};

/** Mean requests from each failed request to the next served one. */
double
meanRequestsToRevival(const std::vector<net::RequestOutcome> &outcomes)
{
    double sum = 0;
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status == net::RequestStatus::Served)
            continue;
        std::size_t j = i + 1;
        while (j < outcomes.size() &&
               outcomes[j].status != net::RequestStatus::Served)
            ++j;
        sum += static_cast<double>(j - i);
        ++events;
    }
    return events ? sum / static_cast<double>(events) : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench(
        "bench_fault_campaign",
        "Fault campaign: component failures vs the recovery ladder");
    bool smoke = false;
    bench.cli.flag("--smoke", "single-seed single-daemon CI-sized subset",
                   &smoke);
    bench.parse(argc, argv);

    SystemConfig base;
    base.physMemBytes = 128ULL * 1024 * 1024;
    base.consecutiveFailureThreshold = 2;
    base.macroCheckpointPeriod = 10;

    const auto &kinds = faults::allFaultKinds();
    const std::vector<double> rates =
        smoke ? std::vector<double>{0.5}
              : std::vector<double>{0.05, 0.5};
    const std::vector<std::uint64_t> seeds =
        smoke ? std::vector<std::uint64_t>{1}
              : std::vector<std::uint64_t>{1, 2};
    const std::vector<std::string> daemons =
        smoke ? std::vector<std::string>{"httpd"}
              : std::vector<std::string>{"httpd", "bind"};
    const std::uint64_t requests = smoke ? 20 : 60;

    benchutil::printHeader(
        "Fault campaign: component failures vs the recovery ladder",
        base);
    std::cout << std::left << std::setw(30) << "cell"
              << std::right << std::setw(9) << "injected"
              << std::setw(9) << "corrupt"
              << std::setw(10) << "det_rate"
              << std::setw(11) << "recov_rate"
              << std::setw(7) << "micro"
              << std::setw(7) << "macro"
              << std::setw(7) << "rejuv"
              << std::setw(5) << "esc"
              << std::setw(12) << "req_to_rev" << "\n";

    std::size_t cells_n =
        kinds.size() * rates.size() * seeds.size() * daemons.size();
    auto cells = bench.run(cells_n, [&](std::size_t i,
                                        benchutil::CellObs cell_obs) {
        std::size_t di = i % daemons.size();
        std::size_t rest = i / daemons.size();
        std::size_t si = rest % seeds.size();
        rest /= seeds.size();
        std::size_t ri = rest % rates.size();
        FaultKind kind = kinds[rest / rates.size()];

        SystemConfig cfg = base;
        // The update log is the only engine with log entries to flip;
        // every other kind runs against the paper's delta backup.
        cfg.checkpointScheme = kind == FaultKind::LogFlip
            ? CheckpointScheme::MemoryUpdateLog
            : CheckpointScheme::DeltaBackup;

        FaultPlan plan;
        // MonitorDelay needs a magnitude: half a million cycles.
        plan.add(kind, rates[ri],
                 kind == FaultKind::MonitorDelay ? 500000 : 0);
        plan.setSeed(seeds[si]);

        net::DaemonProfile profile = net::daemonByName(daemons[di]);
        profile.instrPerRequest = 25000;

        core::IndraSystem sys(core::NodeConfig{cfg, plan});
        CampaignCell cell;
        cell.label = std::string(faults::faultKindName(kind)) + ":" +
                     (rates[ri] == 0.5 ? "0.50" : "0.05") + ":s" +
                     std::to_string(seeds[si]) + ":" + daemons[di];
        std::size_t slot = 0;
        auto outcomes = cell_obs.capture(sys, cell.label, [&] {
            slot = sys.deployService(profile);
            return sys.runScript(
                net::ClientScript::randomMix(
                    requests, 0.3,
                    {net::AttackKind::StackSmash,
                     net::AttackKind::CodeInjection,
                     net::AttackKind::DosFlood, net::AttackKind::Dormant},
                    seeds[si] * 7919 + i),
                slot);
        });

        core::ServiceSlot &s = sys.slot(slot);
        cell.injected = sys.faultInjector()->totalInjected();
        cell.corruptDetected = s.corruptionDetected();

        // An attack counts as detected when its outcome carries a
        // monitor violation — that survives escalation to macro or
        // rejuvenation, and excludes benign false positives (which
        // degraded trace transport can produce).
        std::uint64_t attacks = 0, detected = 0;
        for (const auto &o : outcomes) {
            if (o.attack == net::AttackKind::None)
                continue;
            ++attacks;
            detected += (o.violation != mon::Violation::None);
        }
        cell.detectionRate = attacks
            ? static_cast<double>(detected) /
                  static_cast<double>(attacks)
            : 0.0;

        auto rep = net::AvailabilityReport::build(outcomes);
        cell.recoveryRate = rep.availability();
        cell.micro = rep.recovered;
        cell.macro = rep.macroRecovered;
        cell.rejuv = rep.rejuvenated;
        cell.escalations = s.recovery->integrityEscalations() +
                           s.recovery->macroRestoreFailures() +
                           s.recovery->missingSnapshotRecoveries();
        cell.reqToRevival = meanRequestsToRevival(outcomes);
        return cell;
    });

    for (const CampaignCell &c : cells) {
        std::cout << std::left << std::setw(30) << c.label
                  << std::right << std::setw(9) << c.injected
                  << std::setw(9) << c.corruptDetected
                  << std::setw(10) << std::fixed << std::setprecision(3)
                  << c.detectionRate
                  << std::setw(11) << c.recoveryRate
                  << std::setw(7) << c.micro
                  << std::setw(7) << c.macro
                  << std::setw(7) << c.rejuv
                  << std::setw(5) << c.escalations
                  << std::setw(12) << std::setprecision(2)
                  << c.reqToRevival << "\n";
    }

    // Campaign-wide roll-up: did the storage-corruption kinds achieve
    // full detection, and was every escalation edge exercised?
    std::uint64_t tot_inj = 0, tot_macro = 0, tot_rejuv = 0;
    for (const CampaignCell &c : cells) {
        tot_inj += c.injected;
        tot_macro += c.macro;
        tot_rejuv += c.rejuv;
    }
    std::cout << "\ntotal injected " << tot_inj
              << ", macro recoveries " << tot_macro
              << ", rejuvenations " << tot_rejuv << "\n";
    return 0;
}
