/**
 * @file
 * Section 4.1 security evaluation: launch the documented exploit
 * scenarios (CAN-2003-0651, VU#196945, CAN-2003-0466, CAN-2004-0640,
 * the NT OOB/teardrop DoS class, and a dormant plant) against their
 * daemons and verify INDRA detects and recovers, with availability
 * for well-behaved clients preserved.
 */

#include "bench_util.hh"

#include "net/exploit.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_sec_eval",
                                 "Security evaluation (Section 4.1): "
                                 "documented exploits");
    bench.parse(argc, argv);
    SystemConfig cfg;
    cfg.consecutiveFailureThreshold = 2;
    benchutil::printHeader(
        "Security evaluation (Section 4.1): documented exploits", cfg);

    std::cout << std::left << std::setw(18) << "exploit"
              << std::setw(10) << "daemon"
              << std::setw(18) << "violation"
              << std::setw(22) << "outcome"
              << "availability\n";

    const auto &scenarios = net::documentedExploits();
    struct Row
    {
        net::RequestOutcome bad;
        net::AvailabilityReport report;
    };
    auto rows = bench.run(scenarios.size(), [&](std::size_t i,
                                                benchutil::CellObs cell) {
        const auto &scenario = scenarios[i];
        net::DaemonProfile profile = net::daemonByName(scenario.daemon);
        profile.instrPerRequest =
            std::min<std::uint64_t>(profile.instrPerRequest, 120000);

        core::IndraSystem sys(core::NodeConfig{cfg});
        return cell.capture(sys, scenario.id, [&] {
            std::size_t slot = sys.deployService(profile);
            // 2 warm requests, the exploit, then 6 more benign
            // requests (which for the dormant plant include the
            // surfacing crash and the hybrid macro recovery).
            auto script = net::ClientScript::benign(9);
            script[2].attack = scenario.kind;
            auto outcomes = sys.runScript(script, slot);
            return Row{outcomes[2],
                       net::AvailabilityReport::build(outcomes)};
        });
    });
    bool all_ok = true;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const auto &scenario = scenarios[i];
        const auto &report = rows[i].report;
        bool recovered = report.lost == 0;
        all_ok = all_ok && recovered;
        std::cout << std::left << std::setw(18) << scenario.id
                  << std::setw(10) << scenario.daemon
                  << std::setw(18)
                  << mon::violationName(rows[i].bad.violation)
                  << std::setw(22)
                  << net::requestStatusName(rows[i].bad.status)
                  << std::fixed << std::setprecision(3)
                  << report.availability() << "\n";
    }
    std::cout << (all_ok
                      ? "\nall exploits detected/absorbed; no request "
                        "lost (paper: INDRA detects and recovers)"
                      : "\nSOME SCENARIO LOST SERVICE")
              << std::endl;
    return all_ok ? 0 : 1;
}
