/**
 * @file
 * Table 2: which inspection mechanism detects which exploit class.
 *
 * Reproduces the paper's matrix by launching each attack class
 * against a monitored service and reporting the violation that the
 * resurrector raises first.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    benchutil::BenchRecipe bench("bench_table2_detection",
                                 "Table 2: remote exploit inspection");
    bench.parse(argc, argv);
    SystemConfig cfg;
    benchutil::printHeader("Table 2: remote exploit inspection", cfg);

    const std::vector<net::AttackKind> kinds = {
        net::AttackKind::StackSmash,   net::AttackKind::CodeInjection,
        net::AttackKind::FuncPtrHijack, net::AttackKind::FormatString,
        net::AttackKind::DosFlood,
    };

    std::cout << std::left << std::setw(18) << "attack"
              << std::setw(20) << "violation raised"
              << std::setw(22) << "outcome"
              << "matches Table 2\n";

    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 40000;
    auto outs = bench.run(kinds.size(), [&](std::size_t i,
                                            benchutil::CellObs cell) {
        // No warm-up reset: the snapshot covers the whole run.
        core::IndraSystem sys(core::NodeConfig{cfg});
        return cell.capture(sys, net::attackKindName(kinds[i]), [&] {
            std::size_t slot = sys.deployService(profile);
            sys.runScript(net::ClientScript::benign(2), slot);
            net::ServiceRequest req;
            req.seq = 3;
            req.attack = kinds[i];
            return sys.processRequest(slot, req);
        });
    });
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const auto &out = outs[i];
        bool matches =
            out.violation == net::expectedViolation(kinds[i]) &&
            out.status != net::RequestStatus::Lost &&
            out.status != net::RequestStatus::Served;
        std::cout << std::left << std::setw(18)
                  << net::attackKindName(kinds[i]) << std::setw(20)
                  << mon::violationName(out.violation) << std::setw(22)
                  << net::requestStatusName(out.status)
                  << (matches ? "yes" : "NO") << "\n";
    }
    std::cout << "\nTable 2 mapping: stack smash -> call/return "
                 "inspection;\ninjected code -> code origin; function "
                 "pointer / virtual function -> control transfer\n";
    return 0;
}
