/**
 * @file
 * Availability under sustained attack: the paper's motivating
 * scenario (Section 2.2). An attacker interleaves DoS exploits with
 * legitimate traffic. A conventional server restarts on every
 * exploit and loses service; INDRA micro-recovers and keeps every
 * well-behaved client happy.
 */

#include <iomanip>
#include <iostream>

#include "core/node_handle.hh"
#include "core/system.hh"
#include "net/daemon_profile.hh"
#include "sim/logging.hh"

using namespace indra;

namespace
{

struct RunSummary
{
    net::AvailabilityReport report;
    double totalCycles = 0;
};

RunSummary
serveUnderAttack(const SystemConfig &cfg,
                 const net::DaemonProfile &profile,
                 const std::vector<net::ServiceRequest> &script)
{
    core::IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(profile);
    auto outcomes = sys.runScript(script, slot);
    RunSummary s;
    s.report = net::AvailabilityReport::build(outcomes);
    s.totalCycles = static_cast<double>(outcomes.back().endTick -
                                        outcomes.front().startTick);
    return s;
}

void
printRow(const char *name, const RunSummary &s)
{
    std::cout << std::left << std::setw(26) << name << std::right
              << std::setw(8) << s.report.served
              << std::setw(12) << s.report.recovered
              << std::setw(8) << s.report.lost
              << std::setw(14) << std::fixed << std::setprecision(3)
              << s.report.availability()
              << std::setw(16) << std::setprecision(0)
              << s.totalCycles << "\n";
}

} // anonymous namespace

int
main()
{
    setLogVerbosity(0);
    std::cout << "Service availability under a repeated remote "
                 "exploit (paper Section 2.2)\n\n";

    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 120000;
    // Every 3rd request is an exploit; 30 requests total.
    auto script = net::ClientScript::randomMix(
        30, 0.33,
        {net::AttackKind::DosFlood, net::AttackKind::StackSmash,
         net::AttackKind::CodeInjection},
        12345);

    std::cout << std::left << std::setw(26) << "configuration"
              << std::right << std::setw(8) << "served"
              << std::setw(12) << "recovered"
              << std::setw(8) << "lost"
              << std::setw(14) << "availability"
              << std::setw(16) << "total cycles" << "\n";

    // Conventional server: no monitor, no backup -> restart on crash.
    SystemConfig conventional;
    conventional.monitorEnabled = false;
    conventional.checkpointScheme = CheckpointScheme::None;
    printRow("conventional (restart)",
             serveUnderAttack(conventional, profile, script));

    // INDRA.
    SystemConfig indra_cfg;
    printRow("INDRA (micro recovery)",
             serveUnderAttack(indra_cfg, profile, script));

    std::cout << "\nINDRA turns every would-be outage into a "
                 "per-request rollback, preserving availability\n"
                 "and finishing the same request mix far sooner than "
                 "the restart-based server\n";

    // Open-loop view: requests arrive on a clock; legitimate clients
    // queue behind whatever the server is busy with. A restart parks
    // the queue for tens of millions of cycles; a micro recovery
    // barely registers.
    std::cout << "\nopen-loop arrivals (mean benign latency incl. "
                 "queueing):\n";
    for (bool protected_run : {false, true}) {
        SystemConfig cfg = protected_run ? indra_cfg : conventional;
        core::IndraSystem sys(core::NodeConfig{cfg});
        sys.boot();
        std::size_t slot = sys.deployService(profile);
        auto warm = sys.runScript(net::ClientScript::benign(2), slot);
        Cycles service = warm[1].responseTime();
        // A fixed arrival script: no legit clients of the handle's
        // own, no admission deadline, benign requests marked legit.
        resilience::StormPlan plan;
        plan.legitRequests = 0;
        plan.deadline = 0;
        core::NodeHandle node(sys, slot, plan);
        node.collectEvents(true);
        Tick arrival = sys.slot(slot).core->curTick();
        for (const net::ServiceRequest &req : script) {
            node.inject(arrival, req,
                        req.attack == net::AttackKind::None);
            arrival += (service * 3) / 2;
        }
        node.advanceTo(maxTick);
        double sum = 0;
        std::uint64_t n = 0;
        for (const core::NodeEvent &ev : node.drainEvents()) {
            if (ev.legit) {
                sum += static_cast<double>(ev.responseCycles);
                ++n;
            }
        }
        std::cout << "  " << std::left << std::setw(26)
                  << (protected_run ? "INDRA" : "conventional")
                  << std::fixed << std::setprecision(0) << sum / n
                  << " cycles\n";
    }
    return 0;
}
