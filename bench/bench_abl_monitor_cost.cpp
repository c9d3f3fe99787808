/**
 * @file
 * Ablation: how expensive can the resurrector's software checks get
 * before monitoring overhead becomes visible? Sweeps a multiplier
 * over all per-record check costs ("tens or even hundreds of
 * instructions", Section 3.2.5) and reports the mean response-time
 * overhead across the six daemons.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_abl_monitor_cost",
                                 "Ablation: monitor check-cost scaling");
    bench.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;

    benchutil::printHeader(
        "Ablation: monitor check-cost scaling", base);

    std::cout << std::left << std::setw(10) << "scale"
              << std::right << std::setw(16) << "overhead_%" << "\n";

    const std::vector<double> scales = {0.25, 0.5, 1.0, 2.0, 4.0};
    const auto &daemons = net::standardDaemons();
    // One cell per (scale, daemon); each recomputes its own baseline
    // run, matching the historical serial loop exactly.
    auto overheads = bench.run(
        scales.size() * daemons.size(),
        [&](std::size_t i, benchutil::CellObs cell) {
            double scale = scales[i / daemons.size()];
            SystemConfig cfg = base;
            cfg.monitorEnabled = true;
            cfg.codeOriginCheckCycles = static_cast<Cycles>(
                cfg.codeOriginCheckCycles * scale);
            cfg.callReturnCheckCycles = static_cast<Cycles>(
                cfg.callReturnCheckCycles * scale);
            cfg.ctrlTransferCheckCycles = static_cast<Cycles>(
                cfg.ctrlTransferCheckCycles * scale);
            if (cfg.callReturnCheckCycles == 0)
                cfg.callReturnCheckCycles = 1;

            const auto &profile = daemons[i % daemons.size()];
            auto off = benchutil::runBenign(core::NodeConfig{base}, profile, 2, 4);
            std::ostringstream label;
            label << profile.name << ".x" << scale;
            auto on = benchutil::runBenign(core::NodeConfig{cfg}, profile,
                                           2, 4, cell, label.str());
            return std::vector<double>{
                (on.totalResponse() / off.totalResponse() - 1.0) * 100.0};
        });
    for (std::size_t s = 0; s < scales.size(); ++s) {
        std::cout << std::left << std::setw(10) << scales[s]
                  << std::right << std::fixed << std::setprecision(3)
                  << std::setw(16)
                  << benchutil::meanRow(overheads, s * daemons.size(),
                                        daemons.size())[0]
                  << "\n";
    }
    std::cout << "\nsoftware monitoring stays cheap until checks cost "
                 "several hundred resurrector cycles" << std::endl;
    return 0;
}
