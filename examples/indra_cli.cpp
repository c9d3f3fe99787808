/**
 * @file
 * Command-line INDRA simulator: a scriptable driver over the whole
 * framework.
 *
 *   indra_cli [key=value ...] [--jobs N]
 *
 * Driver keys:
 *   daemon=httpd          service to deploy (ftpd, httpd, bind,
 *                         sendmail, imap, nfs); a comma-separated
 *                         list or "all" sweeps several daemons and
 *                         prints one summary row per daemon
 *   requests=20           requests to serve
 *   warmup=2              unmeasured warm-up requests
 *   attack=stack-smash    attack kind (see --help)
 *   attack_period=5       attack every Nth request (0 = never)
 *   instr=0               override instructions/request (0 = profile)
 *   stats=0               dump the full statistics tree at the end
 *   jobs=N / --jobs N     workers for a multi-daemon sweep (also
 *                         INDRA_JOBS; default hardware_concurrency,
 *                         1 = serial). Output is identical for any N.
 *
 * Everything else is a key of the NodeConfig registry
 * (core/node_config.hh; --help lists every key), e.g.:
 *   checkpointScheme=virtual-checkpoint traceFifoEntries=16
 *   faults.plan=macro-corrupt:0.1 resilience.queue_bound=8
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/node_config.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "net/daemon_profile.hh"
#include "obs/stat_sinks.hh"
#include "sim/config_reader.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

using namespace indra;

namespace
{

std::string
driverArg(const std::vector<std::string> &args, const std::string &key,
          const std::string &fallback)
{
    for (const auto &arg : args) {
        if (arg.rfind(key + "=", 0) == 0)
            return arg.substr(key.size() + 1);
    }
    return fallback;
}

void
printHelp()
{
    std::cout <<
        "usage: indra_cli [key=value ...] [--jobs N]\n\n"
        "driver keys: daemon requests warmup attack attack_period "
        "instr stats jobs\n"
        "daemon accepts one name, a comma-separated list, or 'all' "
        "(parallel sweep)\n"
        "attacks: benign stack-smash code-injection func-ptr-hijack "
        "format-string dos-flood dormant\n\n"
        "node keys:\n";
    for (const core::NodeSetting &s : core::nodeSettings()) {
        std::cout << "  " << std::left << std::setw(36) << s.key
                  << s.doc << " [" << s.syntax << "]\n";
    }
}

std::vector<std::string>
splitDaemons(const std::string &spec)
{
    if (spec == "all") {
        std::vector<std::string> names;
        for (const auto &p : net::standardDaemons())
            names.push_back(p.name);
        return names;
    }
    std::vector<std::string> names;
    std::istringstream ss(spec);
    std::string name;
    while (std::getline(ss, name, ',')) {
        if (!name.empty())
            names.push_back(name);
    }
    fatal_if(names.empty(), "daemon= needs at least one daemon name");
    return names;
}

/** Everything the driver measures for one daemon. */
struct DaemonResult
{
    std::vector<net::RequestOutcome> outcomes;
    std::string statDump;
};

DaemonResult
runOneDaemon(const core::NodeConfig &node, net::DaemonProfile profile,
             std::uint64_t instr, std::uint64_t requests,
             std::uint64_t warmup, const std::string &attack_name,
             std::uint64_t period, bool dump_stats)
{
    if (instr)
        profile.instrPerRequest = instr;

    core::IndraSystem system(node);
    system.boot();
    std::size_t slot = system.deployService(profile);

    for (const auto &r : net::ClientScript::benign(warmup))
        system.processRequest(slot, r);
    system.slot(slot).statGroup->resetAll();

    auto script = period
        ? net::ClientScript::periodicAttack(
              requests, net::attackKindFromName(attack_name), period)
        : net::ClientScript::benign(requests);

    DaemonResult result;
    result.outcomes = system.runScript(script, slot);
    if (dump_stats) {
        std::ostringstream os;
        obs::TextStatSink sink(os);
        system.rootStats().accept(sink);
        result.statDump = os.str();
    }
    return result;
}

void
printOutcomeTable(const std::vector<net::RequestOutcome> &outcomes)
{
    std::cout << std::left << std::setw(6) << "req"
              << std::setw(16) << "payload"
              << std::setw(22) << "outcome"
              << std::setw(18) << "violation"
              << std::right << std::setw(14) << "cycles" << "\n";
    for (const auto &o : outcomes) {
        std::cout << std::left << std::setw(6) << o.seq
                  << std::setw(16) << net::attackKindName(o.attack)
                  << std::setw(22) << net::requestStatusName(o.status)
                  << std::setw(18) << mon::violationName(o.violation)
                  << std::right << std::setw(14) << o.responseTime()
                  << "\n";
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const auto &a : args) {
        if (a == "--help" || a == "-h") {
            printHelp();
            return 0;
        }
    }
    setLogVerbosity(1);

    unsigned jobs = parseJobs(args);
    // One NodeConfig built from the command line: every key=value
    // that is not a driver key goes through the dotted-key router,
    // which fatals on typos instead of guessing.
    static const char *driverKeys[] = {"daemon", "requests", "warmup",
                                       "attack", "attack_period",
                                       "instr", "stats", "jobs"};
    core::NodeConfig node;
    for (const std::string &arg : args) {
        auto eq = arg.find('=');
        if (eq == std::string::npos)
            continue;
        std::string key = arg.substr(0, eq);
        bool driver = false;
        for (const char *d : driverKeys)
            driver = driver || key == d;
        if (driver)
            continue;
        core::applyNodeSetting(node, key, arg.substr(eq + 1));
    }

    auto u64Arg = [&](const std::string &key, const char *fallback) {
        return parseU64("setting '" + key + "'",
                        driverArg(args, key, fallback));
    };
    auto daemons = splitDaemons(driverArg(args, "daemon", "httpd"));
    std::uint64_t instr = u64Arg("instr", "0");
    std::uint64_t requests = u64Arg("requests", "20");
    std::uint64_t warmup = u64Arg("warmup", "2");
    std::string attack_name = driverArg(args, "attack", "benign");
    std::uint64_t period = u64Arg("attack_period", "0");
    bool dump_stats =
        parseBool("setting 'stats'", driverArg(args, "stats", "0"));

    node.system.print(std::cout);

    if (daemons.size() == 1) {
        // Single service: full per-request trace, as always.
        net::DaemonProfile profile = net::daemonByName(daemons[0]);
        std::cout << "\ndeploying " << profile.name << " ("
                  << (instr ? instr : profile.instrPerRequest)
                  << " instr/request)\n\n";
        auto result =
            runOneDaemon(node, profile, instr, requests, warmup,
                         attack_name, period, dump_stats);
        printOutcomeTable(result.outcomes);

        auto report = net::AvailabilityReport::build(result.outcomes);
        std::cout << "\navailability " << std::fixed
                  << std::setprecision(3) << report.availability()
                  << "  (served " << report.served << ", recovered "
                  << report.recovered << ", macro "
                  << report.macroRecovered << ", rejuvenated "
                  << report.rejuvenated << ", lost " << report.lost
                  << ")\nmean benign response "
                  << std::setprecision(0) << report.meanBenignResponse
                  << " cycles\n";

        if (dump_stats) {
            std::cout << "\n--- statistics ---\n" << result.statDump;
        }
        return 0;
    }

    // Daemon sweep: one shared-nothing cell per daemon, summary rows
    // in daemon order regardless of the worker count.
    harness::ParallelSweep sweep(jobs);
    std::cout << "\nsweeping " << daemons.size() << " daemons\n\n";
    auto results = sweep.run(daemons.size(), [&](std::size_t i) {
        return runOneDaemon(node, net::daemonByName(daemons[i]), instr,
                            requests, warmup, attack_name, period,
                            dump_stats);
    });

    std::cout << std::left << std::setw(12) << "daemon"
              << std::right << std::setw(9) << "served"
              << std::setw(11) << "recovered"
              << std::setw(8) << "macro"
              << std::setw(7) << "rejuv"
              << std::setw(7) << "lost"
              << std::setw(14) << "availability"
              << std::setw(18) << "mean_benign_cyc" << "\n";
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        auto report = net::AvailabilityReport::build(results[i].outcomes);
        std::cout << std::left << std::setw(12) << daemons[i]
                  << std::right << std::setw(9) << report.served
                  << std::setw(11) << report.recovered
                  << std::setw(8) << report.macroRecovered
                  << std::setw(7) << report.rejuvenated
                  << std::setw(7) << report.lost
                  << std::fixed << std::setprecision(3)
                  << std::setw(14) << report.availability()
                  << std::setprecision(0) << std::setw(18)
                  << report.meanBenignResponse << "\n";
    }
    if (dump_stats) {
        for (std::size_t i = 0; i < daemons.size(); ++i) {
            std::cout << "\n--- statistics: " << daemons[i]
                      << " ---\n" << results[i].statDump;
        }
    }
    return 0;
}
