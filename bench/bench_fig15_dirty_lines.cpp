/**
 * @file
 * Figure 15: percentage of cache lines actually backed up out of all
 * the lines of the pages touched per request — the reason delta
 * backup beats page-granularity schemes by orders of magnitude.
 *
 * Paper shape: modest fractions for all daemons, bind by far the
 * heaviest writer (~45%), the rest mostly 10-25%.
 */

#include "bench_util.hh"

#include "checkpoint/delta_backup.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig15_dirty_lines",
                                 "Figure 15: touched-page lines requiring "
                                 "backup");
    bench.parse(argc, argv);
    SystemConfig cfg;
    cfg.monitorEnabled = false;
    cfg.checkpointScheme = CheckpointScheme::DeltaBackup;
    benchutil::printHeader(
        "Figure 15: % of touched-page lines requiring backup", cfg);

    const auto &daemons = net::standardDaemons();
    auto rows = bench.run(daemons.size(), [&](std::size_t i,
                                              benchutil::CellObs cell) {
        auto run = benchutil::runBenign(core::NodeConfig{cfg}, daemons[i],
                                        2, 8, cell, daemons[i].name);
        auto *delta = dynamic_cast<ckpt::DeltaBackup *>(
            run.serviceSlot().policy.get());
        return std::vector<double>{delta->dirtyLineRatio().mean() * 100.0,
                                   delta->pagesPerRequest().mean()};
    });
    benchutil::printDaemonTable({"dirty_lines_%", "pages/request"}, rows);
    std::cout << "\npaper: bind ~45%, others mostly 10-25%"
              << std::endl;
    return 0;
}
