/**
 * @file
 * Ablation: one shared resurrector vs one resurrector per
 * resurrectee. With a single resurrector multiplexing N service
 * cores, every verification takes N time slices — the monitoring
 * overhead curve shows when a second resurrector core pays off
 * (the paper: "having more resurrector cores is possible").
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_abl_shared_resurrector",
                                 "Ablation: shared resurrector time-slicing");
    bench.parse(argc, argv);
    SystemConfig base;
    base.checkpointScheme = CheckpointScheme::None;
    base.monitorEnabled = false;

    benchutil::printHeader(
        "Ablation: shared resurrector time-slicing", base);

    std::cout << std::left << std::setw(14) << "resurrectees"
              << std::right << std::setw(18) << "overhead_%_shared"
              << std::setw(18) << "overhead_%_dedic" << "\n";

    net::DaemonProfile profile = net::daemonByName("ftpd");
    auto off = benchutil::runBenign(core::NodeConfig{base}, profile, 2, 5);

    const std::vector<std::uint32_t> counts = {1, 2, 4};
    struct Row { double shared_total, dedic_total; };
    auto rows = bench.run(counts.size(), [&](std::size_t i,
                                             benchutil::CellObs cell) {
        SystemConfig shared = base;
        shared.monitorEnabled = true;
        shared.numResurrectees = counts[i];
        shared.sharedResurrector = true;
        auto s = benchutil::runBenign(core::NodeConfig{shared}, profile, 2, 5,
                                      cell,
                                      "shared_" + std::to_string(counts[i]));

        // Exported but left out of the trace, which shows the shared
        // resurrector only.
        SystemConfig dedicated = shared;
        dedicated.sharedResurrector = false;
        auto d = benchutil::runBenign(core::NodeConfig{dedicated}, profile, 2, 5);
        cell.snapshot("dedicated_" + std::to_string(counts[i]),
                      d.system->rootStats());
        return Row{s.totalResponse(), d.totalResponse()};
    });
    for (std::size_t i = 0; i < counts.size(); ++i) {
        std::cout << std::left << std::setw(14) << counts[i]
                  << std::right
                  << std::fixed << std::setprecision(3) << std::setw(18)
                  << (rows[i].shared_total / off.totalResponse() - 1.0) *
                       100.0
                  << std::setw(18)
                  << (rows[i].dedic_total / off.totalResponse() - 1.0) *
                       100.0
                  << "\n";
    }
    std::cout << "\na single resurrector saturates as service cores "
                 "are added; dedicated monitors stay flat" << std::endl;
    return 0;
}
