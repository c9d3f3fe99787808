/**
 * @file
 * Figure 11: service response-time overhead of INDRA monitoring
 * (backup and rollback excluded, exactly as in the paper).
 *
 * Paper shape: a small percentage for every daemon (all below ~10%).
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig11_monitor_overhead",
                                 "Figure 11: monitoring overhead on service "
                                 "response time");
    bench.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;
    SystemConfig monitored = base;
    monitored.monitorEnabled = true;

    benchutil::printHeader(
        "Figure 11: monitoring overhead on service response time (%)",
        monitored);

    const auto &daemons = net::standardDaemons();
    auto overheads = bench.run(daemons.size(), [&](std::size_t i,
                                                   benchutil::CellObs cell) {
        auto off = benchutil::runBenign(core::NodeConfig{base}, daemons[i],
                                        3, 8);
        auto on = benchutil::runBenign(core::NodeConfig{monitored},
                                       daemons[i], 3, 8, cell,
                                       daemons[i].name);
        return std::vector<double>{
            (on.totalResponse() / off.totalResponse() - 1.0) * 100.0};
    });
    benchutil::printDaemonTable({"overhead_%"}, overheads);
    std::cout << "\npaper: all daemons below ~10% overhead"
              << std::endl;
    return 0;
}
