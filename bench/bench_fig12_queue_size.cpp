/**
 * @file
 * Figure 12: impact of the shared trace-FIFO size on normalized
 * service response time (averaged over the six daemons).
 *
 * Paper shape: a 16-entry queue noticeably stalls the resurrectees;
 * performance saturates from 32 entries up.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig12_queue_size",
                                 "Figure 12: normalized response time vs "
                                 "trace-FIFO size");
    bench.parse(argc, argv);
    const std::vector<std::uint32_t> sizes = {8, 16, 24, 32, 48, 64};

    SystemConfig cfg;
    cfg.checkpointScheme = CheckpointScheme::None;
    benchutil::printHeader(
        "Figure 12: normalized response time vs trace-FIFO size", cfg);

    // Per-size mean response across daemons, normalized to the
    // largest queue. One sweep cell per (size, daemon) pair.
    const auto &daemons = net::standardDaemons();
    auto cellMeans = bench.run(
        sizes.size() * daemons.size(),
        [&](std::size_t i, benchutil::CellObs cell) {
            SystemConfig c = cfg;
            c.traceFifoEntries = sizes[i / daemons.size()];
            const auto &profile = daemons[i % daemons.size()];
            auto run = benchutil::runBenign(
                core::NodeConfig{c}, profile, 2, 5, cell,
                profile.name + ".fifo" +
                    std::to_string(c.traceFifoEntries));
            return std::vector<double>{run.meanResponse()};
        });
    std::vector<double> means;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        means.push_back(benchutil::meanRow(
            cellMeans, s * daemons.size(), daemons.size())[0]);
    }

    std::cout << std::left << std::setw(12) << "entries"
              << std::right << std::setw(14) << "normalized" << "\n";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::cout << std::left << std::setw(12) << sizes[i]
                  << std::right << std::setw(14) << std::fixed
                  << std::setprecision(4) << means[i] / means.back()
                  << "\n";
    }
    std::cout << "\npaper: 16 entries too small; saturation at >= 32"
              << std::endl;
    return 0;
}
