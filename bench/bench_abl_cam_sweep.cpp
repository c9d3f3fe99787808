/**
 * @file
 * Ablation: filter CAM size sweep beyond the paper's two points
 * (0 = no filter through 256 entries). Residual code-origin checks
 * and the monitoring overhead they would induce.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_abl_cam_sweep",
                                 "Ablation: filter CAM size sweep");
    bench.parse(argc, argv);
    SystemConfig base;
    base.checkpointScheme = CheckpointScheme::None;
    benchutil::printHeader("Ablation: filter CAM size sweep", base);

    const std::vector<std::uint32_t> sizes = {0, 8, 16, 32, 64, 128,
                                              256};
    std::cout << std::left << std::setw(10) << "entries"
              << std::right << std::setw(16) << "residual_%"
              << std::setw(20) << "origin_records/req" << "\n";

    net::DaemonProfile profile = net::daemonByName("httpd");
    struct Row { double residual, records; };
    auto rows = bench.run(sizes.size(), [&](std::size_t i,
                                            benchutil::CellObs cell) {
        SystemConfig cfg = base;
        cfg.filterCamEntries = sizes[i];
        auto run = benchutil::runBenign(core::NodeConfig{cfg}, profile, 2, 6,
                                        cell,
                                        "cam_" + std::to_string(sizes[i]));
        auto &cam = run.serviceSlot().core->filterCam();
        return Row{cam.missRatio() * 100.0,
                   (cam.lookups() - cam.hits()) / 6.0};
    });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::cout << std::left << std::setw(10) << sizes[i]
                  << std::right << std::fixed << std::setprecision(3)
                  << std::setw(16) << rows[i].residual
                  << std::setprecision(0)
                  << std::setw(20) << rows[i].records << "\n";
    }
    std::cout << "\npaper: 32 entries already waive >90% of checks"
              << std::endl;
    return 0;
}
