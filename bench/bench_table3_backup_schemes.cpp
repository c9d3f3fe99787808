/**
 * @file
 * Table 3: comparison of macro memory backup approaches.
 *
 * For each engine, measure (a) the backup cost amortized into benign
 * request processing and (b) the recovery cost when every fourth
 * request must be rolled back. The expected ordering is the paper's:
 *
 *   backup:    delta (fast) < update log < virtual ckpt ~ software
 *   recovery:  delta ~ page-remap (fast) << update log (slow)
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_table3_backup_schemes",
                                 "Table 3: memory backup approaches");
    bench.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;

    const std::vector<CheckpointScheme> schemes = {
        CheckpointScheme::DeltaBackup,
        CheckpointScheme::MemoryUpdateLog,
        CheckpointScheme::VirtualCheckpoint,
        CheckpointScheme::SoftwareCheckpoint,
        CheckpointScheme::DomainRewind,
    };

    benchutil::printHeader(
        "Table 3: memory backup approaches (httpd + bind mix)", base);

    std::cout << std::left << std::setw(22) << "scheme"
              << std::right << std::setw(16) << "backup_cyc/req"
              << std::setw(18) << "recovery_cyc/rb"
              << std::setw(14) << "slow_atk/4"
              << std::setw(14) << "slow_atk/2" << "\n";

    const std::vector<std::string> daemons = {"httpd", "bind"};
    // One cell per (scheme, daemon) pair: backup cycles per request,
    // recovery cycles per rollback, and the two slowdowns. Per-scheme
    // means are summed below in daemon order, as the serial loop did.
    auto cells = bench.run(
        schemes.size() * daemons.size(),
        [&](std::size_t i, benchutil::CellObs cell_obs) {
            CheckpointScheme scheme = schemes[i / daemons.size()];
            net::DaemonProfile profile =
                net::daemonByName(daemons[i % daemons.size()]);
            double backup_per_req = 0, recovery_per_rb = 0;

            auto off = benchutil::runBenign(core::NodeConfig{base}, profile, 2, 6);
            SystemConfig cfg = base;
            cfg.checkpointScheme = scheme;

            // Total busy time per benign request (as in Fig. 16):
            // attributes recovery work to the legitimate clients
            // queued behind it, whichever window it lands in.
            auto busy_per_benign = [&](std::uint64_t period) {
                auto script = net::ClientScript::periodicAttack(
                    8, net::AttackKind::DosFlood, period);
                for (auto &r : script)
                    r.seq += 2;
                auto run = benchutil::runScript(
                    core::NodeConfig{cfg}, profile, 2, script, cell_obs,
                    std::string(checkpointSchemeName(scheme)) + "." +
                        profile.name + ".atk" + std::to_string(period));
                std::uint64_t benign_n = 0;
                for (const auto &o : run.outcomes) {
                    if (o.attack == net::AttackKind::None)
                        ++benign_n;
                }
                auto &policy = *run.serviceSlot().policy;
                if (period == 4) {
                    backup_per_req =
                        static_cast<double>(policy.backupCycles()) / 8.0;
                    recovery_per_rb =
                        static_cast<double>(policy.recoveryCycles()) / 2.0;
                }
                return (run.totalResponse() / benign_n) /
                    off.meanResponse();
            };
            double slowdown4 = busy_per_benign(4);
            double slowdown2 = busy_per_benign(2);
            return std::vector<double>{backup_per_req, recovery_per_rb,
                                       slowdown4, slowdown2};
        });
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        benchutil::printRow(
            checkpointSchemeName(schemes[s]),
            benchutil::meanRow(cells, s * daemons.size(), daemons.size()),
            1);
    }
    std::cout << "\ncolumns: slowdown with an attack every 4th / every "
                 "2nd request.\npaper ordering: delta backup fast on "
                 "BOTH axes; update log fast backup / slow recovery\n"
                 "(and it falls behind delta as rollbacks become "
                 "frequent); page schemes slow backup / fast recovery"
              << std::endl;
    return 0;
}
