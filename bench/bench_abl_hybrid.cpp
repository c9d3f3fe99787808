/**
 * @file
 * Ablation: hybrid recovery's macro-checkpoint period (Figure 8's
 * "once every 10,000 requests") against dormant attacks.
 *
 * A short period pays frequent full-application checkpoints but heals
 * dormant damage from a recent image; a long period is cheap in the
 * benign case. Measures checkpoint work, failures until the macro
 * fallback fires, and availability under a dormant plant.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_abl_hybrid",
                                 "Ablation: hybrid recovery macro-checkpoint "
                                 "period");
    bench.parse(argc, argv);
    SystemConfig base;
    base.consecutiveFailureThreshold = 2;
    benchutil::printHeader(
        "Ablation: hybrid recovery macro-checkpoint period", base);

    std::cout << std::left << std::setw(10) << "period"
              << std::right << std::setw(12) << "captures"
              << std::setw(14) << "macro_rolls"
              << std::setw(14) << "crashes"
              << std::setw(14) << "avail" << "\n";

    net::DaemonProfile profile = net::daemonByName("sendmail");
    profile.instrPerRequest = 60000;

    const std::vector<std::uint64_t> periods = {2, 5, 10, 25};
    struct Row
    {
        std::uint64_t captures, restores, crashes;
        double availability;
    };
    auto rows = bench.run(periods.size(), [&](std::size_t i,
                                              benchutil::CellObs cell) {
        SystemConfig cfg = base;
        cfg.macroCheckpointPeriod = periods[i];
        core::IndraSystem sys(core::NodeConfig{cfg});
        std::size_t slot = 0;
        auto label = "period_" + std::to_string(periods[i]);
        auto outcomes = cell.capture(sys, label, [&] {
            slot = sys.deployService(profile);
            auto script = net::ClientScript::benign(30);
            script[9].attack = net::AttackKind::Dormant;
            return sys.runScript(script, slot);
        });
        auto report = net::AvailabilityReport::build(outcomes);

        std::uint64_t crashes = 0;
        for (const auto &o : outcomes) {
            if (o.status == net::RequestStatus::CrashedRecovered)
                ++crashes;
        }
        return Row{sys.slot(slot).macro->captures(),
                   sys.slot(slot).macro->restores(), crashes,
                   report.availability()};
    });
    for (std::size_t i = 0; i < periods.size(); ++i) {
        std::cout << std::left << std::setw(10) << periods[i]
                  << std::right << std::setw(12) << rows[i].captures
                  << std::setw(14) << rows[i].restores
                  << std::setw(14) << rows[i].crashes << std::fixed
                  << std::setprecision(3) << std::setw(14)
                  << rows[i].availability << "\n";
    }
    std::cout << "\ndormant damage defeats micro recovery; the macro "
                 "fallback (Fig. 8) revives the service at any period"
              << std::endl;
    return 0;
}
