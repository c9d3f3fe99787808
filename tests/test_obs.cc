/**
 * @file
 * Tests for the observability layer: the TraceLog ring, the trace
 * sinks (JSONL / Chrome trace_event), the StatSink visitors, and the
 * end-to-end contracts the benches rely on — fixed-seed determinism
 * of the event stream, observation-only tracing (attaching a log
 * never changes simulation results), full event-kind coverage of a
 * fault-composed storm, and the bench export files (--stats-json,
 * --trace in both formats) parsing and matching across --jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/json_reader.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "faults/fault_plan.hh"
#include "harness/parallel_sweep.hh"
#include "net/daemon_profile.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/stat_sinks.hh"
#include "obs/trace_log.hh"
#include "obs/trace_sinks.hh"
#include "resilience/resilience_config.hh"
#include "resilience/storm.hh"
#include "sim/stats.hh"
#include "storm_recipe.hh"

using namespace indra;
using obs::EventKind;
using obs::TraceEvent;
using obs::TraceLog;

// ============================================================ TraceLog

TEST(TraceLog, EmitAndReadBack)
{
    TraceLog log(8);
    log.emit(100, EventKind::MonitorViolation, 2, 7, 0x4000);
    log.emit(150, EventKind::MicroRecovery, 2, 1);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.at(0).tick, 100u);
    EXPECT_EQ(log.at(0).kind, EventKind::MonitorViolation);
    EXPECT_EQ(log.at(0).source, 2u);
    EXPECT_EQ(log.at(0).a0, 7u);
    EXPECT_EQ(log.at(0).a1, 0x4000u);
    EXPECT_EQ(log.at(1).kind, EventKind::MicroRecovery);
    EXPECT_EQ(log.countOf(EventKind::MicroRecovery), 1u);
    EXPECT_EQ(log.countOf(EventKind::Shed), 0u);
}

TEST(TraceLog, RingWrapsAndCountsDrops)
{
    TraceLog log(4);
    for (Tick t = 0; t < 10; ++t)
        log.emit(t, EventKind::Shed, 0, t);
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.emitted(), 10u);
    EXPECT_EQ(log.dropped(), 6u);
    // Oldest-first iteration over the surviving tail.
    EXPECT_EQ(log.at(0).tick, 6u);
    EXPECT_EQ(log.at(3).tick, 9u);
}

TEST(TraceLog, SetNowIsMonotonicAndDrivesEmitNow)
{
    TraceLog log(8);
    log.setNow(500);
    log.setNow(200); // must not move time backwards
    EXPECT_EQ(log.now(), 500u);
    log.emitNow(EventKind::FaultInjected, 0, 3);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.at(0).tick, 500u);
}

TEST(TraceLog, ClearResetsEverything)
{
    TraceLog log(2);
    log.setNow(10);
    for (int i = 0; i < 5; ++i)
        log.emit(i, EventKind::Shed, 0);
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.emitted(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
    EXPECT_EQ(log.now(), 0u);
}

TEST(TraceLog, EveryKindHasAName)
{
    std::set<std::string> names;
    for (std::size_t k = 0; k < obs::eventKindCount; ++k) {
        std::string name =
            obs::eventKindName(static_cast<EventKind>(k));
        EXPECT_FALSE(name.empty());
        names.insert(name);
    }
    // Names are distinct (a duplicate would alias two kinds in every
    // exported trace).
    EXPECT_EQ(names.size(), obs::eventKindCount);
}

// ========================================================= trace sinks

namespace
{

/** Minimal scanner for one-object-per-line JSON: find "key":value. */
std::string
jsonField(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    auto pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    pos += needle.size();
    auto end = pos;
    if (line[pos] == '"') {
        end = line.find('"', pos + 1);
        return line.substr(pos + 1, end - pos - 1);
    }
    while (end < line.size() && line[end] != ',' && line[end] != '}')
        ++end;
    return line.substr(pos, end - pos);
}

} // anonymous namespace

TEST(TraceSinks, JsonlRoundTrip)
{
    TraceLog log(8);
    log.emit(42, EventKind::MonitorViolation, 3, 5, 0x1234);
    log.emit(99, EventKind::HealthTransition, 1, 0, 1);

    std::ostringstream os;
    obs::renderJsonl(log, 7, os);
    std::istringstream is(os.str());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);

    EXPECT_EQ(jsonField(lines[0], "cell"), "7");
    EXPECT_EQ(jsonField(lines[0], "tick"), "42");
    EXPECT_EQ(jsonField(lines[0], "kind"), "monitor_violation");
    EXPECT_EQ(jsonField(lines[0], "src"), "3");
    EXPECT_EQ(jsonField(lines[1], "tick"), "99");
    EXPECT_EQ(jsonField(lines[1], "kind"), "health_transition");
}

TEST(TraceSinks, ChromeTraceIsWellFormed)
{
    TraceLog log(8);
    log.emit(10, EventKind::Shed, 0, 1, 2);
    log.emit(20, EventKind::MacroCapture, 0, 30, 4000);

    std::ostringstream os;
    obs::ChromeTraceWriter writer(os);
    writer.append(log, 0);
    writer.finish();
    std::string out = os.str();

    EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"shed\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"macro_capture\""),
              std::string::npos);
    // Balanced brackets: the file must load as a single JSON object.
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(TraceSinks, FormatNamesRoundTrip)
{
    EXPECT_EQ(obs::traceFormatFromName("jsonl"),
              obs::TraceFormat::Jsonl);
    EXPECT_EQ(obs::traceFormatFromName("chrome"),
              obs::TraceFormat::Chrome);
    EXPECT_STREQ(obs::traceFormatName(obs::TraceFormat::Jsonl),
                 "jsonl");
    EXPECT_STREQ(obs::traceFormatName(obs::TraceFormat::Chrome),
                 "chrome");
}

// ========================================================== stat sinks

namespace
{

/** A small tree exercising every stat type. */
struct SampleTree
{
    stats::StatGroup root{"sys"};
    stats::StatGroup child{root, "svc"};
    stats::Scalar count{child, "count", "things counted"};
    stats::Scalar level{child, "level", "a level"};
    stats::Distribution dist{child, "lat", "latency"};
    stats::Histogram hist{child, "occ", "occupancy", 10.0, 4};

    SampleTree()
    {
        count += 3;
        level += 7.5;
        dist.sample(10);
        dist.sample(20);
        hist.sample(5);
        hist.sample(25);
        hist.sample(-1);
        hist.sample(1000);
    }
};

} // anonymous namespace

TEST(StatSinks, JsonIsValidAndComplete)
{
    SampleTree t;
    std::ostringstream os;
    obs::JsonStatSink sink(os);
    t.root.accept(sink);
    std::string out = os.str();

    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_NE(out.find("\"sys\":{"), std::string::npos);
    EXPECT_NE(out.find("\"svc\":{"), std::string::npos);
    EXPECT_NE(out.find("\"count\":3"), std::string::npos);
    EXPECT_NE(out.find("\"level\":7.5"), std::string::npos);
    // Distributions export their moments...
    EXPECT_NE(out.find("\"lat\":{"), std::string::npos);
    EXPECT_NE(out.find("\"mean\":15"), std::string::npos);
    // ...and histograms their buckets and the out-of-range tails.
    EXPECT_NE(out.find("\"occ\":{"), std::string::npos);
    EXPECT_NE(out.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(out.find("\"overflow\":1"), std::string::npos);
}

TEST(StatSinks, TextMatchesHistoricalShape)
{
    SampleTree t;
    std::ostringstream os;
    obs::TextStatSink sink(os);
    t.root.accept(sink);
    std::string out = os.str();

    // Qualified name, value column, "  # desc" trailer.
    EXPECT_NE(out.find("sys.svc.count"), std::string::npos);
    EXPECT_NE(out.find("# things counted"), std::string::npos);
    EXPECT_NE(out.find("sys.svc.lat.mean"), std::string::npos);
    // Histogram buckets render as half-open ranges; empty buckets
    // are skipped.
    EXPECT_NE(out.find("sys.svc.occ.bucket[0,10)"), std::string::npos);
    EXPECT_EQ(out.find("sys.svc.occ.bucket[10,20)"),
              std::string::npos);
}

TEST(StatSinks, JsonStringEscapesControls)
{
    std::ostringstream os;
    obs::jsonString(os, "a\"b\\c\nd\x01");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

// ================================================ end-to-end contracts

namespace
{

SystemConfig
stormConfig()
{
    SystemConfig cfg;
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    cfg.consecutiveFailureThreshold = 4;
    return cfg;
}

resilience::ResilienceConfig
armedConfig()
{
    resilience::ResilienceConfig rc;
    rc.queueBound = 6;
    rc.fifoHighWater = 48;
    rc.degradeViolations = 2;
    rc.quarantineFailStreak = 2;
    rc.healServedStreak = 3;
    return rc;
}

resilience::StormPlan
stormPlan()
{
    resilience::StormPlan plan;
    plan.seed = 1;
    plan.legitRequests = 40;
    plan.legitRatePerMCycle = 1.0;
    plan.attackRatePerMCycle = 8.0;
    plan.burstLen = 4;
    plan.attackKind = net::AttackKind::StackSmash;
    plan.plantDormant = true;
    plan.deadline = 3'000'000;
    plan.probePeriod = 50'000;
    return plan;
}

/** Run the fixed-seed storm, streaming events into @p log. */
resilience::StormReport
runTracedStorm(TraceLog *log, const faults::FaultPlan &fplan = {})
{
    core::IndraSystem sys(
        core::NodeConfig{stormConfig(), fplan, armedConfig()});
    sys.attachTraceLog(log);
    sys.boot();
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25'000;
    std::size_t slot = sys.deployService(profile);
    return core::runStorm(sys, slot, stormPlan());
}

std::string
renderedJsonl(const TraceLog &log, std::size_t cell)
{
    std::ostringstream os;
    obs::renderJsonl(log, cell, os);
    return os.str();
}

} // anonymous namespace

// Fixed-seed storms must produce the same event stream no matter how
// many sweep workers carry the cells — the property --trace relies on.
TEST(ObsEndToEnd, EventStreamDeterministicAcrossJobs)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "built with INDRA_OBS_TRACING=OFF";
    const std::size_t cells = 4;
    auto runAll = [&](unsigned jobs) {
        std::vector<std::unique_ptr<TraceLog>> logs;
        for (std::size_t i = 0; i < cells; ++i)
            logs.push_back(std::make_unique<TraceLog>());
        harness::ParallelSweep sweep(jobs);
        sweep.run(cells, [&](std::size_t i) {
            runTracedStorm(logs[i].get());
            return 0;
        });
        std::string all;
        for (std::size_t i = 0; i < cells; ++i)
            all += renderedJsonl(*logs[i], i);
        return all;
    };
    std::string serial = runAll(1);
    std::string parallel = runAll(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

// Attaching a trace log is observation-only: simulation results are
// bit-identical with and without one (the macro-level zero-cost
// contract; with INDRA_OBS_TRACING=OFF the emission code vanishes
// entirely).
TEST(ObsEndToEnd, TracingDoesNotPerturbSimulation)
{
    resilience::StormReport untraced = runTracedStorm(nullptr);
    TraceLog log;
    resilience::StormReport traced = runTracedStorm(&log);
    EXPECT_EQ(untraced, traced);
}

// A storm composed with injected faults must light up the whole event
// taxonomy: verdicts, sheds, health transitions, the recovery ladder,
// checkpoint actions, fault injections, and FIFO watermarks.
TEST(ObsEndToEnd, FaultedStormCoversEventTaxonomy)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "built with INDRA_OBS_TRACING=OFF";
    // Corrupt macro images only: delta rollbacks still arm (so
    // RollbackArmed fires) while escalations past micro hit the
    // corrupted image (CorruptionDetected, Rejuvenation).
    faults::FaultPlan fplan =
        faults::FaultPlan::parse("macro-corrupt:1.0");

    SystemConfig cfg = stormConfig();
    // A tiny FIFO forces the high/low-water crossings.
    cfg.traceFifoEntries = 8;
    TraceLog log;
    core::IndraSystem sys(core::NodeConfig{cfg, fplan, armedConfig()});
    sys.attachTraceLog(&log);
    sys.boot();
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25'000;
    std::size_t slot = sys.deployService(profile);
    core::runStorm(sys, slot, stormPlan());

    std::set<EventKind> kinds;
    for (std::size_t i = 0; i < log.size(); ++i)
        kinds.insert(log.at(i).kind);
    EXPECT_GE(kinds.size(), 8u)
        << "only " << kinds.size() << " distinct event kinds emitted";
    EXPECT_TRUE(kinds.count(EventKind::MonitorViolation));
    EXPECT_TRUE(kinds.count(EventKind::Shed));
    EXPECT_TRUE(kinds.count(EventKind::HealthTransition));
    EXPECT_TRUE(kinds.count(EventKind::MicroRecovery));
    EXPECT_TRUE(kinds.count(EventKind::RollbackArmed));
    EXPECT_TRUE(kinds.count(EventKind::FaultInjected));
    EXPECT_TRUE(kinds.count(EventKind::FifoHighWater));
    EXPECT_TRUE(kinds.count(EventKind::FifoLowWater));
}

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The files a storm sweep exports through the bench recipe. */
struct Exported
{
    std::string stats;
    std::string trace;
};

/**
 * Run a three-cell storm sweep (attack rates 0, 2 and 8 per Mcycle,
 * delta flips composed in) on @p jobs workers and export its stats
 * tree and @p format trace through a bench's own command line:
 * --stats-json, --trace, --trace-format and --jobs.
 */
Exported
exportStormSweep(unsigned jobs, const std::string &format)
{
    const std::string stem = ::testing::TempDir() + "obs_export_j" +
                             std::to_string(jobs) + "_" + format;
    const std::string statsPath = stem + ".stats.json";
    const std::string tracePath = stem + ".trace";
    std::vector<std::string> args = {
        "test_obs", "--stats-json", statsPath, "--trace", tracePath,
        "--trace-format=" + format, "--jobs", std::to_string(jobs)};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());

    const double rates[] = {0.0, 2.0, 8.0};
    benchutil::BenchRecipe bench("test_obs", "obs export test");
    bench.parse(static_cast<int>(argv.size()), argv.data());
    bench.run(3, [&](std::size_t i, benchutil::CellObs cell) {
        core::NodeConfig node(benchutil::stormSystem(),
                              faults::FaultPlan::parse("delta-flip:0.3"),
                              benchutil::stormDefense());
        resilience::StormPlan plan = benchutil::staticStorm(20);
        plan.attackRatePerMCycle = rates[i];
        return benchutil::runStormCell(node, "httpd", plan, cell,
                                       "cell" + std::to_string(i));
    });
    return {readFile(statsPath), readFile(tracePath)};
}

} // anonymous namespace

// The bench export path end to end: the stats JSON, every JSONL trace
// line and the Chrome trace document parse, and all three files are
// byte-identical whether one worker or four carried the cells.
TEST(ObsEndToEnd, BenchExportFilesParseAndMatchAcrossJobs)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "built with INDRA_OBS_TRACING=OFF";
    Exported jsonl = exportStormSweep(1, "jsonl");
    Exported chrome = exportStormSweep(1, "chrome");

    check::JsonValue stats = check::parseJson(jsonl.stats);
    EXPECT_EQ(stats.str("bench", ""), "test_obs");
    const check::JsonValue *cells = stats.field("cells");
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(cells->items.size(), 3u);

    std::istringstream lines(jsonl.trace);
    std::string line;
    std::size_t events = 0;
    while (std::getline(lines, line)) {
        EXPECT_FALSE(check::parseJson(line).str("kind", "").empty());
        ++events;
    }
    EXPECT_GT(events, 0u);

    check::JsonValue chromeDoc = check::parseJson(chrome.trace);
    const check::JsonValue *traceEvents = chromeDoc.field("traceEvents");
    ASSERT_NE(traceEvents, nullptr);
    EXPECT_FALSE(traceEvents->items.empty());

    Exported jsonl4 = exportStormSweep(4, "jsonl");
    Exported chrome4 = exportStormSweep(4, "chrome");
    EXPECT_EQ(jsonl.stats, jsonl4.stats);
    EXPECT_EQ(jsonl.trace, jsonl4.trace);
    EXPECT_EQ(chrome.trace, chrome4.trace);
}
