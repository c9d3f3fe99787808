/**
 * @file
 * Figure 9: L1 instruction-cache miss rate per daemon.
 *
 * Paper shape: low single-digit percentages for all six daemons
 * (roughly 0.5-4.5%), bind and nfs at the high end, average ~2%.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig09_il1_miss",
                                 "Figure 9: L1 instruction cache miss rate");
    bench.parse(argc, argv);
    SystemConfig cfg;
    benchutil::printHeader(
        "Figure 9: L1 instruction cache miss rate (%)", cfg);

    const auto &daemons = net::standardDaemons();
    auto rates = bench.run(daemons.size(), [&](std::size_t i,
                                               benchutil::CellObs cell) {
        auto run = benchutil::runBenign(core::NodeConfig{cfg}, daemons[i],
                                        3, 10, cell, daemons[i].name);
        // Miss rate per instruction fetch: sequential fetches within
        // an already-resident line always hit.
        double instr = static_cast<double>(
            run.serviceSlot().core->instructions());
        return std::vector<double>{
            instr > 0 ? run.serviceSlot().hierarchy->l1iCache().misses() /
                            instr * 100.0
                      : 0.0};
    });
    benchutil::printDaemonTable({"il1_miss_%"}, rates);
    return 0;
}
