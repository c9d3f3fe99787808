/**
 * @file
 * Shared helpers for the experiment-reproduction benches: building
 * systems, running warm measured request batches, and printing
 * paper-style tables.
 */

#ifndef INDRA_BENCH_UTIL_HH
#define INDRA_BENCH_UTIL_HH

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/node_config.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "net/client.hh"
#include "net/daemon_profile.hh"
#include "obs/json.hh"
#include "obs/stat_sinks.hh"
#include "obs/trace_log.hh"
#include "obs/trace_sinks.hh"
#include "sim/config_reader.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace indra::benchutil
{

/** @p spec split at commas, empty items dropped. */
inline std::vector<std::string>
splitList(const std::string &spec)
{
    std::vector<std::string> out;
    std::istringstream is(spec);
    std::string tok;
    while (std::getline(is, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

/** The value of option @p flag, or @p dflt when it was not given. */
inline std::uint64_t
optionU64(const char *flag, const std::string &text, std::uint64_t dflt)
{
    return text.empty() ? dflt : parseU64(flag, text);
}

/**
 * The observability slice of a bench command line: where to export
 * the stats tree (--stats-json) and the structured event trace
 * (--trace / --trace-format). Both default off, in which case the
 * bench's stdout is bit-identical to a build without the obs layer.
 */
struct ObsOptions
{
    std::string statsJsonPath; //!< --stats-json PATH ("" = off)
    std::string tracePath;     //!< --trace PATH ("" = off)
    std::string formatName = "jsonl"; //!< --trace-format name
    obs::TraceFormat traceFormat = obs::TraceFormat::Jsonl;

    bool wantStats() const { return !statsJsonPath.empty(); }
    bool wantTrace() const { return !tracePath.empty(); }
};

/**
 * The cluster slice of a bench command line: fleet shape and user
 * skew for the cluster-scale sweeps. Registered as a BenchCli preset
 * (clusterPreset()) so every cluster bench spells the flags the same
 * way; the raw strings are parsed lazily with fatal() on a typo.
 */
struct ClusterOptions
{
    std::string nodesSpec; //!< --nodes N[,N...] ("" = bench default)
    std::string ratioSpec; //!< --ratio R[,R...] resurrector:resurrectee
    std::string zipfSpec;  //!< --zipf THETA user popularity skew
    std::string usersSpec; //!< --users N synthetic user population

    /** Parse "--nodes 1,2,4"; @p defaults when the flag was absent. */
    std::vector<std::uint32_t>
    nodeCounts(std::vector<std::uint32_t> defaults) const
    {
        if (nodesSpec.empty())
            return defaults;
        std::vector<std::uint32_t> out;
        for (const std::string &tok : splitList(nodesSpec, "--nodes"))
            out.push_back(parseU32("--nodes", tok, 1));
        return out;
    }

    /** Parse "--ratio 0.25,0.5,1"; @p defaults when absent. */
    std::vector<double>
    ratios(std::vector<double> defaults) const
    {
        if (ratioSpec.empty())
            return defaults;
        std::vector<double> out;
        for (const std::string &tok : splitList(ratioSpec, "--ratio")) {
            out.push_back(parseF64("--ratio", tok, 0.0,
                                   std::numeric_limits<double>::max(),
                                   true));
        }
        return out;
    }

    /** Parse "--zipf 0.99"; @p fallback when absent. */
    double
    zipfTheta(double fallback) const
    {
        if (zipfSpec.empty())
            return fallback;
        return parseF64("--zipf", zipfSpec, 0.0);
    }

    /** Parse "--users 1000000"; @p fallback when absent. */
    std::uint64_t
    users(std::uint64_t fallback) const
    {
        if (usersSpec.empty())
            return fallback;
        return parseU64("--users", usersSpec, 1);
    }

  private:
    static std::vector<std::string>
    splitList(const std::string &spec, const char *flag)
    {
        std::vector<std::string> out;
        std::string tok;
        std::istringstream is(spec);
        while (std::getline(is, tok, ','))
            out.push_back(tok);
        fatal_if(out.empty(), flag, " wants a comma-separated list");
        return out;
    }
};

/**
 * The shared bench command line: every sweep bench registers its
 * flags/options here, gets --help and --jobs for free, and rejects
 * anything unrecognized instead of silently ignoring a typo
 * ("--smkoe" running the full-size sweep is how CI timeouts happen).
 *
 *     BenchCli cli("bench_foo", "what the bench measures");
 *     bool smoke = false;
 *     cli.flag("--smoke", "run the CI-sized subset", &smoke);
 *     auto sweep = cli.parse(argc, argv);
 */
class BenchCli
{
  public:
    BenchCli(std::string prog, std::string summary)
        : progName(std::move(prog)), progSummary(std::move(summary))
    {
        // Every sweep bench exports the same way; register the
        // observability options once, here, instead of in 18 benches.
        option("--stats-json", "PATH",
               "write the final stats tree as JSON", &obsOpts.statsJsonPath);
        option("--trace", "PATH",
               "write the structured event trace", &obsOpts.tracePath);
        option("--trace-format", "jsonl|chrome",
               "trace file format (default jsonl)", &obsOpts.formatName);
    }

    /** The parsed observability options (valid after parse()). */
    const ObsOptions &obs() const { return obsOpts; }

    /**
     * Register the cluster sweep preset: --nodes/--ratio/--zipf/
     * --users land in @p out (which must outlive parse()).
     */
    void
    clusterPreset(ClusterOptions *out)
    {
        option("--nodes", "N[,N...]",
               "fleet sizes to sweep (resurrectee nodes)",
               &out->nodesSpec);
        option("--ratio", "R[,R...]",
               "resurrector:resurrectee pool ratios to sweep",
               &out->ratioSpec);
        option("--zipf", "THETA",
               "Zipf skew of synthetic user popularity",
               &out->zipfSpec);
        option("--users", "N", "synthetic user population",
               &out->usersSpec);
    }

    /**
     * Register --ablate K=V[,K=V...]: NodeConfig key overrides, read
     * back after parse() as ablateSpec() (the text, for the banner)
     * and ablations() (the K=V list applyNodeSettings takes).
     */
    void
    ablateOption(const std::string &desc)
    {
        option("--ablate", "K=V[,K=V...]", desc, &ablateText);
    }

    /** The --ablate text as given ("" when absent). */
    const std::string &ablateSpec() const { return ablateText; }

    /** The --ablate text split at commas, empty items dropped. */
    std::vector<std::string>
    ablations() const
    {
        return splitList(ablateText);
    }

    /** Register a boolean flag (present -> *out = true). */
    void
    flag(const std::string &name, const std::string &desc, bool *out)
    {
        flags.push_back(Flag{name, desc, out});
    }

    /** Register a value option ("--name VALUE" or "--name=VALUE"). */
    void
    option(const std::string &name, const std::string &value_name,
           const std::string &desc, std::string *out)
    {
        options.push_back(Option{name, value_name, desc, out});
    }

    /**
     * Parse the command line. Handles --help/-h (print and exit 0)
     * and the --jobs forms, fills the registered flags and options,
     * and dies on anything else.
     */
    harness::ParallelSweep
    parse(int argc, char **argv)
    {
        std::vector<std::string> args(argv + 1, argv + argc);
        unsigned jobs = parseJobs(args); // removes the --jobs forms
        for (auto it = args.begin(); it != args.end();) {
            const std::string &arg = *it;
            if (arg == "--help" || arg == "-h") {
                printHelp(std::cout);
                std::exit(0);
            }
            if (auto *f = findFlag(arg)) {
                *f->out = true;
                it = args.erase(it);
                continue;
            }
            bool matched = false;
            for (Option &o : options) {
                if (arg == o.name) {
                    fatal_if(it + 1 == args.end(), o.name,
                             " needs a value (", o.valueName, ")");
                    *o.out = *(it + 1);
                    it = args.erase(it, it + 2);
                    matched = true;
                    break;
                }
                if (arg.rfind(o.name + "=", 0) == 0) {
                    *o.out = arg.substr(o.name.size() + 1);
                    it = args.erase(it);
                    matched = true;
                    break;
                }
            }
            if (matched)
                continue;
            fatal(progName, ": unrecognized command-line flag '", arg,
                  "' (try --help)");
        }
        // Validate eagerly so a typo dies before the sweep runs.
        obsOpts.traceFormat = obs::traceFormatFromName(obsOpts.formatName);
        return harness::ParallelSweep(jobs);
    }

  private:
    struct Flag
    {
        std::string name;
        std::string desc;
        bool *out;
    };
    struct Option
    {
        std::string name;
        std::string valueName;
        std::string desc;
        std::string *out;
    };

    Flag *
    findFlag(const std::string &name)
    {
        for (Flag &f : flags) {
            if (f.name == name)
                return &f;
        }
        return nullptr;
    }

    void
    printHelp(std::ostream &os) const
    {
        os << "usage: " << progName << " [options]\n\n"
           << progSummary << "\n\noptions:\n";
        auto line = [&os](const std::string &lhs,
                          const std::string &desc) {
            os << "  " << std::left << std::setw(26) << lhs << desc
               << "\n";
        };
        line("--help", "print this help and exit");
        line("--jobs N",
             "sweep worker threads (default: hardware concurrency; "
             "1 = serial)");
        for (const Flag &f : flags)
            line(f.name, f.desc);
        for (const Option &o : options)
            line(o.name + " " + o.valueName, o.desc);
    }

    std::string progName;
    std::string progSummary;
    std::vector<Flag> flags;
    std::vector<Option> options;
    ObsOptions obsOpts;
    std::string ablateText;
};

/**
 * The --smoke self-check tally: check(ok, what) prints one
 * "SMOKE CHECK FAILED: what" line per failed check, and finish()
 * prints the verdict line and returns the bench's exit code.
 */
class SmokeChecks
{
  public:
    void
    operator()(bool ok, const std::string &what)
    {
        if (!ok) {
            std::cout << "SMOKE CHECK FAILED: " << what << "\n";
            ++failures;
        }
    }

    int
    finish() const
    {
        if (failures == 0)
            std::cout << "\nall smoke checks passed\n";
        return failures == 0 ? 0 : 1;
    }

  private:
    int failures = 0;
};

/**
 * Per-cell observability capture for a ParallelSweep bench.
 *
 * resize(n) is called once, before the sweep, from the main thread;
 * after that each cell only touches its own index, so worker threads
 * never contend. traceFor(i) hands cell i its private TraceLog (null
 * when no --trace was given — the zero-cost-when-off contract), and
 * snapshot(i, label, root) renders cell i's stats tree to a pending
 * JSON fragment (callable several times per cell — e.g. one system
 * per table row). write() merges everything *in cell order*, so the
 * files are bit-identical for any --jobs count.
 */
class ObsCollector
{
  public:
    ObsCollector(std::string bench, ObsOptions options)
        : benchName(std::move(bench)), opts(std::move(options))
    {
    }

    /** Pre-size the per-cell slots (main thread, before the sweep). */
    void
    resize(std::size_t cells)
    {
        slots.resize(cells);
        if (opts.wantTrace()) {
            for (Cell &c : slots) {
                if (!c.log)
                    c.log = std::make_unique<obs::TraceLog>();
            }
        }
    }

    /** Cell @p i's event log, or nullptr when tracing is off. */
    obs::TraceLog *
    traceFor(std::size_t i)
    {
        return i < slots.size() ? slots[i].log.get() : nullptr;
    }

    /** Render cell @p i's stats tree under @p label (cell thread). */
    void
    snapshot(std::size_t i, const std::string &label,
             const stats::StatGroup &root)
    {
        if (!opts.wantStats() || i >= slots.size())
            return;
        std::ostringstream os;
        os << "{\"cell\":" << i << ",\"label\":";
        obs::jsonString(os, label);
        os << ",\"stats\":";
        obs::JsonStatSink sink(os);
        root.accept(sink);
        os << "}";
        slots[i].snaps.push_back(os.str());
    }

    /** Merge and write the requested files (main thread, post-sweep). */
    void
    write() const
    {
        if (opts.wantStats()) {
            std::ofstream out(opts.statsJsonPath);
            fatal_if(!out, "cannot write ", opts.statsJsonPath);
            out << "{\"bench\":";
            obs::jsonString(out, benchName);
            out << ",\"cells\":[";
            bool first = true;
            for (const Cell &c : slots) {
                for (const std::string &s : c.snaps) {
                    if (!first)
                        out << ",";
                    first = false;
                    out << "\n" << s;
                }
            }
            out << "\n]}\n";
        }
        if (opts.wantTrace()) {
            std::ofstream out(opts.tracePath);
            fatal_if(!out, "cannot write ", opts.tracePath);
            if (opts.traceFormat == obs::TraceFormat::Jsonl) {
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    if (slots[i].log)
                        obs::renderJsonl(*slots[i].log, i, out);
                }
            } else {
                obs::ChromeTraceWriter writer(out);
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    if (slots[i].log)
                        writer.append(*slots[i].log, i);
                }
                writer.finish();
            }
        }
    }

  private:
    struct Cell
    {
        std::unique_ptr<obs::TraceLog> log;
        std::vector<std::string> snaps;
    };

    std::string benchName;
    ObsOptions opts;
    std::vector<Cell> slots;
};

/** One measured run of one daemon under one configuration. */
struct Run
{
    std::unique_ptr<core::IndraSystem> system;
    std::size_t slot = 0;
    std::vector<net::RequestOutcome> outcomes;

    core::ServiceSlot &serviceSlot() { return system->slot(slot); }

    /** Sum of response times over the measured outcomes. */
    double
    totalResponse() const
    {
        double t = 0;
        for (const auto &o : outcomes)
            t += static_cast<double>(o.responseTime());
        return t;
    }

    /** Mean response time over the measured outcomes. */
    double
    meanResponse() const
    {
        return outcomes.empty() ? 0.0
                                : totalResponse() / outcomes.size();
    }
};

/**
 * Boot a system, deploy @p profile, run @p warmup benign requests,
 * reset statistics, then run @p script and return the outcomes. With
 * a non-null @p trace the system's emitters stream structured events
 * into it; warmup events are cleared along with the warmup stats so
 * the trace covers exactly the measured window.
 */
inline Run
runScript(const core::NodeConfig &node, const net::DaemonProfile &profile,
          std::uint64_t warmup,
          const std::vector<net::ServiceRequest> &script,
          obs::TraceLog *trace = nullptr)
{
    Run run;
    run.system = std::make_unique<core::IndraSystem>(node);
    if (trace)
        run.system->attachTraceLog(trace);
    run.system->boot();
    run.slot = run.system->deployService(profile);
    for (const auto &req : net::ClientScript::benign(warmup))
        run.system->processRequest(run.slot, req);
    run.serviceSlot().statGroup->resetAll();
    if (trace)
        trace->clear();
    run.outcomes = run.system->runScript(script, run.slot);
    return run;
}

/** Benign-only convenience wrapper. */
inline Run
runBenign(const core::NodeConfig &node, const net::DaemonProfile &profile,
          std::uint64_t warmup, std::uint64_t measured,
          obs::TraceLog *trace = nullptr)
{
    auto script = net::ClientScript::benign(measured);
    for (auto &r : script)
        r.seq += warmup;
    return runScript(node, profile, warmup, script, trace);
}

/** Print the standard bench header with the Table 4 parameters. */
inline void
printHeader(const std::string &title, const SystemConfig &cfg)
{
    std::cout << "==============================================\n"
              << title << "\n"
              << "==============================================\n";
    cfg.print(std::cout);
    std::cout << "\n";
}

/** Print one row: name + columns, aligned. */
inline void
printRow(const std::string &name, const std::vector<double> &cols,
         int precision = 3)
{
    std::cout << std::left << std::setw(12) << name;
    for (double c : cols) {
        std::cout << std::right << std::setw(14) << std::fixed
                  << std::setprecision(precision) << c;
    }
    std::cout << "\n";
}

/** Print the column header row. */
inline void
printCols(const std::vector<std::string> &names)
{
    std::cout << std::left << std::setw(12) << "daemon";
    for (const auto &n : names)
        std::cout << std::right << std::setw(14) << n;
    std::cout << "\n";
}

} // namespace indra::benchutil

#endif // INDRA_BENCH_UTIL_HH
