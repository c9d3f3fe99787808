/**
 * @file
 * Shared helpers for the experiment-reproduction benches: the bench
 * command line, the paper-bench recipe (sweep + per-cell observability
 * capture), warm measured request batches, and paper-style tables.
 */

#ifndef INDRA_BENCH_UTIL_HH
#define INDRA_BENCH_UTIL_HH

#include <cstdlib>
#include <fstream>
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

    /** Largest --nodes fleet: every node is a whole simulated machine. */
    static constexpr std::uint32_t maxNodes = 256;
    /** Largest --users population: its Zipf CDF is 8 bytes per user. */
    static constexpr std::uint64_t maxUsers = 100000000;

    /** Parse "--nodes 1,2,4"; @p defaults when the flag was absent. */
    std::vector<std::uint32_t>
    nodeCounts(std::vector<std::uint32_t> defaults) const
    {
        if (nodesSpec.empty())
            return defaults;
        std::vector<std::uint32_t> out;
        for (const std::string &tok : splitList(nodesSpec))
            out.push_back(parseU32("--nodes", tok, 1, maxNodes));
        fatal_if(out.empty(), "--nodes wants a comma-separated list");
        return out;
    }

    /** Parse "--ratio 0.25,0.5,1"; @p defaults when absent. */
    std::vector<double>
    ratios(std::vector<double> defaults) const
    {
        if (ratioSpec.empty())
            return defaults;
        std::vector<double> out;
        for (const std::string &tok : splitList(ratioSpec)) {
            out.push_back(parseF64("--ratio", tok, 0.0,
                                   std::numeric_limits<double>::max(),
                                   true));
        }
        fatal_if(out.empty(), "--ratio wants a comma-separated list");
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
        return parseU64("--users", usersSpec, 1, maxUsers);
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
 *     harness::ParallelSweep sweep(cli.parse(argc, argv));
 */
class BenchCli
{
  public:
    BenchCli(std::string prog, std::string summary)
        : progName(std::move(prog)), progSummary(std::move(summary))
    {
    }

    /**
     * Register the cluster sweep preset: --nodes/--ratio/--zipf/
     * --users land in @p out (which must outlive parse()).
     */
    void
    clusterPreset(ClusterOptions *out)
    {
        option("--nodes", "N[,N...]",
               "fleet sizes to sweep (resurrectee nodes, at most " +
                   std::to_string(ClusterOptions::maxNodes) + ")",
               &out->nodesSpec);
        option("--ratio", "R[,R...]",
               "resurrector:resurrectee pool ratios to sweep",
               &out->ratioSpec);
        option("--zipf", "THETA",
               "Zipf skew of synthetic user popularity",
               &out->zipfSpec);
        option("--users", "N",
               "synthetic user population (at most " +
                   std::to_string(ClusterOptions::maxUsers) + ")",
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
     * and dies on anything else. Returns the sweep worker count.
     */
    unsigned
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
        return jobs;
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
            // An option wider than the column still gets a space.
            os << "  " << std::left << std::setw(26) << lhs
               << (lhs.size() < 26 ? "" : " ") << desc << "\n";
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
 * One sweep cell's observability capture: its private TraceLog (null
 * when no --trace was given, the zero-cost-when-off contract) and its
 * list of rendered stats snapshots. A default-constructed CellObs is
 * inert: it traces nothing and snapshots nothing, so one code path
 * serves the observed cells and the unobserved baseline runs alike.
 */
class CellObs
{
  public:
    CellObs() = default;

    /** The cell's event log, or nullptr when tracing is off. */
    obs::TraceLog *trace() const { return log; }

    /**
     * Attach the cell's trace log to @p sys, boot it, run @p body,
     * then snapshot the stats tree under @p label; returns what
     * @p body returns. The one place a bench system is observed.
     */
    template <typename Body>
    auto
    capture(core::IndraSystem &sys, const std::string &label,
            Body &&body) const
    {
        sys.attachTraceLog(log);
        sys.boot();
        auto out = body();
        snapshot(label, sys.rootStats());
        return out;
    }

    /**
     * Render @p root under @p label into the cell's stats file,
     * without tracing: for a run the bench deliberately leaves out
     * of the trace but still exports (callable several times per
     * cell; snapshots keep their call order).
     */
    void
    snapshot(const std::string &label, const stats::StatGroup &root) const
    {
        if (!snaps)
            return;
        std::ostringstream os;
        os << "{\"cell\":" << index << ",\"label\":";
        obs::jsonString(os, label);
        os << ",\"stats\":";
        obs::JsonStatSink sink(os);
        root.accept(sink);
        os << "}";
        snaps->push_back(os.str());
    }

  private:
    friend class BenchRecipe;

    CellObs(obs::TraceLog *trace_log, std::vector<std::string> *stats,
            std::size_t cell)
        : log(trace_log), snaps(stats), index(cell)
    {
    }

    obs::TraceLog *log = nullptr;
    std::vector<std::string> *snaps = nullptr; //!< null = no --stats-json
    std::size_t index = 0;
};

/**
 * The paper-bench recipe: one bench command line with the
 * observability options (--stats-json, --trace, --trace-format), one
 * ParallelSweep, and one per-cell capture. Every bench that writes
 * the obs files is built on it:
 *
 *     BenchRecipe bench("bench_foo", "what the bench measures");
 *     bench.cli.flag("--smoke", "run the CI-sized subset", &smoke);
 *     bench.parse(argc, argv);
 *     auto rows = bench.run(n, [&](std::size_t i, CellObs cell) {
 *         return runBenign(node, profile, 2, 8, cell, "label");
 *     });
 *
 * run() hands cell i its CellObs and, after the sweep, merges every
 * cell's trace and snapshots *in cell order*, so the files are
 * bit-identical for any --jobs count. With no obs flag given nothing
 * is allocated and stdout matches a run without the obs layer.
 */
class BenchRecipe
{
  public:
    BenchRecipe(const std::string &prog, const std::string &summary)
        : cli(prog, summary), benchName(prog)
    {
        setLogVerbosity(0);
        cli.option("--stats-json", "PATH",
                   "write the final stats tree as JSON", &statsPath);
        cli.option("--trace", "PATH", "write the structured event trace",
                   &tracePath);
        cli.option("--trace-format", "jsonl|chrome",
                   "trace file format (default jsonl)", &formatName);
    }

    /** The command line; register bench flags before parse(). */
    BenchCli cli;

    /** Parse the command line; a bad --trace-format dies here. */
    void
    parse(int argc, char **argv)
    {
        jobs = cli.parse(argc, argv);
        traceFormat = obs::traceFormatFromName(formatName);
    }

    /**
     * Sweep @p cells cells, calling @p cell(i, CellObs) on the
     * parallel workers; returns the results in cell order after
     * writing the requested obs files. Call once per bench run.
     */
    template <typename Fn>
    auto
    run(std::size_t cells, Fn &&cell)
    {
        slots.resize(cells);
        for (Slot &s : slots) {
            if (!tracePath.empty())
                s.log = std::make_unique<obs::TraceLog>();
        }
        auto out = harness::ParallelSweep(jobs).run(cells, [&](std::size_t i) {
            return cell(i, CellObs(slots[i].log.get(),
                                   statsPath.empty() ? nullptr
                                                     : &slots[i].snaps,
                                   i));
        });
        write();
        return out;
    }

  private:
    struct Slot
    {
        std::unique_ptr<obs::TraceLog> log;
        std::vector<std::string> snaps;
    };

    void
    write() const
    {
        if (!statsPath.empty()) {
            std::ofstream out(statsPath);
            fatal_if(!out, "cannot write ", statsPath);
            out << "{\"bench\":";
            obs::jsonString(out, benchName);
            out << ",\"cells\":[";
            bool first = true;
            for (const Slot &s : slots) {
                for (const std::string &snap : s.snaps) {
                    if (!first)
                        out << ",";
                    first = false;
                    out << "\n" << snap;
                }
            }
            out << "\n]}\n";
        }
        if (tracePath.empty())
            return;
        std::ofstream out(tracePath);
        fatal_if(!out, "cannot write ", tracePath);
        if (traceFormat == obs::TraceFormat::Jsonl) {
            for (std::size_t i = 0; i < slots.size(); ++i)
                obs::renderJsonl(*slots[i].log, i, out);
        } else {
            obs::ChromeTraceWriter writer(out);
            for (std::size_t i = 0; i < slots.size(); ++i)
                writer.append(*slots[i].log, i);
            writer.finish();
        }
    }

    std::string benchName;
    std::string statsPath;  //!< --stats-json PATH ("" = off)
    std::string tracePath;  //!< --trace PATH ("" = off)
    std::string formatName = "jsonl"; //!< --trace-format name
    obs::TraceFormat traceFormat = obs::TraceFormat::Jsonl;
    unsigned jobs = 0;
    std::vector<Slot> slots;
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
 * reset statistics, then run @p script and return the outcomes,
 * captured by @p cell under @p label. Warmup events are cleared along
 * with the warmup stats so the trace covers exactly the measured
 * window.
 */
inline Run
runScript(const core::NodeConfig &node, const net::DaemonProfile &profile,
          std::uint64_t warmup,
          const std::vector<net::ServiceRequest> &script,
          CellObs cell = {}, const std::string &label = "")
{
    Run run;
    run.system = std::make_unique<core::IndraSystem>(node);
    run.outcomes = cell.capture(*run.system, label, [&] {
        run.slot = run.system->deployService(profile);
        for (const auto &req : net::ClientScript::benign(warmup))
            run.system->processRequest(run.slot, req);
        run.serviceSlot().statGroup->resetAll();
        if (cell.trace())
            cell.trace()->clear();
        return run.system->runScript(script, run.slot);
    });
    return run;
}

/** Benign-only convenience wrapper. */
inline Run
runBenign(const core::NodeConfig &node, const net::DaemonProfile &profile,
          std::uint64_t warmup, std::uint64_t measured,
          CellObs cell = {}, const std::string &label = "")
{
    auto script = net::ClientScript::benign(measured);
    for (auto &r : script)
        r.seq += warmup;
    return runScript(node, profile, warmup, script, cell, label);
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

/**
 * The column-wise mean of @p count rows of @p rows from @p first on,
 * summed in row order: a sweep's per-daemon average.
 */
inline std::vector<double>
meanRow(const std::vector<std::vector<double>> &rows, std::size_t first,
        std::size_t count)
{
    std::vector<double> mean(rows[first].size(), 0.0);
    for (std::size_t r = first; r < first + count; ++r) {
        for (std::size_t c = 0; c < mean.size(); ++c)
            mean[c] += rows[r][c];
    }
    for (double &m : mean)
        m /= count;
    return mean;
}

/**
 * The per-daemon table of Figs. 9-11 and 14-16: the @p cols header,
 * one row per net::standardDaemons() entry (@p rows in daemon order)
 * and the column-wise average row.
 */
inline void
printDaemonTable(const std::vector<std::string> &cols,
                 const std::vector<std::vector<double>> &rows)
{
    const auto &daemons = net::standardDaemons();
    printCols(cols);
    for (std::size_t i = 0; i < daemons.size(); ++i)
        printRow(daemons[i].name, rows[i]);
    printRow("average", meanRow(rows, 0, daemons.size()));
}

} // namespace indra::benchutil

#endif // INDRA_BENCH_UTIL_HH
