/**
 * @file
 * Figure 16: full-INDRA service response-time slowdown, normalized to
 * an unprotected system. Left column: monitoring + delta backup.
 * Right column: additionally a rollback for every other request.
 *
 * Paper shape: modest slowdowns (~1.0-1.5x) everywhere except bind,
 * which exceeds 2x under rollback-every-other-request because its
 * requests are short (~150k instructions) and write densely.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_fig16_backup_rollback",
                                 "Figure 16: slowdown of monitor+backup and "
                                 "rollback every other request");
    bench.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;
    SystemConfig indra_cfg;  // monitor + delta backup (defaults)

    benchutil::printHeader(
        "Figure 16: slowdown of monitor+backup and +rollback every "
        "other request",
        indra_cfg);

    const auto &daemons = net::standardDaemons();
    auto rows = bench.run(daemons.size(), [&](std::size_t i,
                                              benchutil::CellObs cell) {
        const auto &profile = daemons[i];
        auto off = benchutil::runBenign(core::NodeConfig{base}, profile, 2, 8);

        auto on = benchutil::runBenign(core::NodeConfig{indra_cfg}, profile, 2, 8);
        double backup = on.totalResponse() / off.totalResponse();

        // Every other request is a DoS-style malicious request whose
        // damage INDRA must roll back. The service-time cost of the
        // attack traffic and the recovery is borne by the legitimate
        // clients queued behind it, so normalize total busy time per
        // benign request against the unprotected benign baseline.
        auto attack_script = net::ClientScript::periodicAttack(
            16, net::AttackKind::DosFlood, 2);
        for (auto &r : attack_script)
            r.seq += 2;
        auto rb = benchutil::runScript(core::NodeConfig{indra_cfg}, profile,
                                       2, attack_script, cell, profile.name);
        double rollback = (rb.totalResponse() / 8.0) /
            (off.totalResponse() / 8.0);
        return std::vector<double>{backup, rollback};
    });
    benchutil::printDaemonTable({"mon+backup", "+rollback/2"}, rows);
    std::cout << "\npaper: ~1.0-1.5x overall; bind the >2x outlier "
                 "under frequent rollback"
              << std::endl;
    return 0;
}
