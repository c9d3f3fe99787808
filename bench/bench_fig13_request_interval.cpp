/**
 * @file
 * Figure 13: average instruction count between back-to-back service
 * requests.
 *
 * Paper shape: hundreds of thousands to millions of instructions;
 * bind the clear minimum at ~150k, sendmail the maximum near 2.3M.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig13_request_interval",
                                 "Figure 13: instructions between service "
                                 "requests");
    bench.parse(argc, argv);
    SystemConfig cfg;
    benchutil::printHeader(
        "Figure 13: instructions between service requests", cfg);

    benchutil::printCols({"instructions", "cpi"});
    const auto &daemons = net::standardDaemons();
    struct Row { double avg, cpi; };
    auto rows = bench.run(daemons.size(), [&](std::size_t i,
                                              benchutil::CellObs cell) {
        auto run = benchutil::runBenign(core::NodeConfig{cfg}, daemons[i],
                                        2, 8, cell, daemons[i].name);
        double total = 0;
        for (const auto &o : run.outcomes)
            total += static_cast<double>(o.instructions);
        return Row{total / run.outcomes.size(),
                   run.totalResponse() / total};
    });
    double sum = 0;
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name,
                            {rows[i].avg, rows[i].cpi}, 0);
        sum += rows[i].avg;
    }
    benchutil::printRow("average", {sum / daemons.size()}, 0);
    return 0;
}
