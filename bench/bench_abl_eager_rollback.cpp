/**
 * @file
 * Ablation: rollback-on-demand (the paper's design) vs eager rollback
 * at recovery time.
 *
 * Eager rollback pays the whole restoration cost on the recovery
 * critical path — exactly what INDRA's concurrent arming avoids
 * ("without the overhead of an explicit memory rollback",
 * Section 3.3.1). Measures time from detection to the completion of
 * the next benign response.
 */

#include "bench_util.hh"

using namespace indra;

namespace
{

/** Ticks from attack start to the next benign response completing. */
double
recoveryToNextResponse(const SystemConfig &cfg,
                       const net::DaemonProfile &profile,
                       benchutil::CellObs cell, const std::string &label)
{
    core::IndraSystem sys(core::NodeConfig{cfg});
    return cell.capture(sys, label, [&] {
        std::size_t slot = sys.deployService(profile);
        sys.runScript(net::ClientScript::benign(2), slot);

        net::ServiceRequest bad;
        bad.seq = 3;
        bad.attack = net::AttackKind::DosFlood;
        auto attacked = sys.processRequest(slot, bad);

        net::ServiceRequest next;
        next.seq = 4;
        auto served = sys.processRequest(slot, next);
        return static_cast<double>(served.endTick - attacked.startTick);
    });
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_abl_eager_rollback",
                                 "Ablation: rollback on demand vs eager "
                                 "rollback");
    bench.parse(argc, argv);
    SystemConfig lazy;
    lazy.monitorEnabled = false;
    SystemConfig eager = lazy;
    eager.eagerRollback = true;

    benchutil::printHeader(
        "Ablation: rollback on demand vs eager rollback", lazy);

    benchutil::printCols({"lazy_cycles", "eager_cycles", "eager/lazy"});
    const auto &daemons = net::standardDaemons();
    auto rows = bench.run(daemons.size(), [&](std::size_t i,
                                              benchutil::CellObs cell) {
        std::string name = daemons[i].name;
        double tl = recoveryToNextResponse(lazy, daemons[i], cell,
                                           name + ".lazy");
        double te = recoveryToNextResponse(eager, daemons[i], cell,
                                           name + ".eager");
        return std::vector<double>{tl, te, te / tl};
    });
    for (std::size_t i = 0; i < daemons.size(); ++i)
        benchutil::printRow(daemons[i].name, rows[i]);
    std::cout << "\nlazy recovery overlaps restoration with the next "
                 "request; eager pays it up front" << std::endl;
    return 0;
}
