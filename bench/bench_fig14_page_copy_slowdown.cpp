/**
 * @file
 * Figure 14: response-time slowdown when dirty pages are backed up
 * with conventional virtual checkpointing (whole-page copy on
 * demand), normalized to a run without any backup.
 *
 * Paper shape: large slowdowns (multiples, 2-14x), dominated by
 * page-to-page copying; worst for short-request / many-page daemons.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig14_page_copy_slowdown",
                                 "Figure 14: slowdown with page-copy virtual "
                                 "checkpointing");
    bench.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;
    SystemConfig paged = base;
    paged.checkpointScheme = CheckpointScheme::VirtualCheckpoint;

    benchutil::printHeader(
        "Figure 14: slowdown with page-copy virtual checkpointing",
        paged);

    const auto &daemons = net::standardDaemons();
    auto slowdowns = bench.run(daemons.size(), [&](std::size_t i,
                                                   benchutil::CellObs cell) {
        auto off = benchutil::runBenign(core::NodeConfig{base}, daemons[i],
                                        2, 6);
        auto on = benchutil::runBenign(core::NodeConfig{paged}, daemons[i],
                                       2, 6, cell, daemons[i].name);
        return std::vector<double>{on.totalResponse() /
                                   off.totalResponse()};
    });
    benchutil::printDaemonTable({"slowdown_x"}, slowdowns);
    std::cout << "\npaper: multi-x slowdowns (roughly 2-14x)"
              << std::endl;
    return 0;
}
