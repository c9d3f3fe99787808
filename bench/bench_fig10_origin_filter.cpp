/**
 * @file
 * Figure 10: percentage of code-origin checks remaining after the
 * filter CAM, for 32- and 64-entry CAMs.
 *
 * Paper shape: on average 92% of checks waived at 32 entries and 95%
 * at 64 (i.e. ~8% / ~5% of requests survive the filter).
 */

#include "bench_util.hh"

using namespace indra;

namespace
{

double
residualChecks(const net::DaemonProfile &profile, std::uint32_t cam,
               benchutil::CellObs cell)
{
    SystemConfig cfg;
    cfg.filterCamEntries = cam;
    auto run = benchutil::runBenign(
        core::NodeConfig{cfg}, profile, 3, 8, cell,
        profile.name + ".cam" + std::to_string(cam));
    auto &filter = run.serviceSlot().core->filterCam();
    return filter.missRatio() * 100.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig10_origin_filter",
                                 "Figure 10: code-origin checks surviving CAM "
                                 "filtering");
    bench.parse(argc, argv);
    SystemConfig cfg;
    benchutil::printHeader(
        "Figure 10: % of code-origin checks after CAM filtering", cfg);

    const auto &daemons = net::standardDaemons();
    auto rows = bench.run(daemons.size(), [&](std::size_t i,
                                              benchutil::CellObs cell) {
        return std::vector<double>{residualChecks(daemons[i], 32, cell),
                                   residualChecks(daemons[i], 64, cell)};
    });
    benchutil::printDaemonTable({"32-entry", "64-entry"}, rows);
    std::cout << "\npaper: average 8% residual at 32 entries, 5% at 64"
              << std::endl;
    return 0;
}
