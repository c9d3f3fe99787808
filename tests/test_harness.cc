/**
 * @file
 * Tests for the parallel experiment harness: the ThreadPool, the
 * ParallelSweep runner, the --jobs knob, and — the key contract — that
 * a parallel sweep over real IndraSystem cells is bit-identical to the
 * serial one. Built as its own binary labeled "harness" in ctest so it
 * can run under -DINDRA_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "harness/thread_pool.hh"
#include "net/client.hh"
#include "net/daemon_profile.hh"
#include "sim/config_reader.hh"
#include "sim/logging.hh"

using namespace indra;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    harness::ThreadPool pool(4);
    std::atomic<int> hits{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { hits.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    harness::ThreadPool pool(2);
    std::atomic<int> hits{0};
    pool.submit([&] { hits.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(hits.load(), 1);
    pool.submit([&] { hits.fetch_add(1); });
    pool.submit([&] { hits.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(hits.load(), 3);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    harness::ThreadPool pool(2);
    pool.wait();  // nothing submitted; must not hang
    EXPECT_EQ(pool.size(), 2u);
}

TEST(ParallelSweep, ResolvesZeroJobsToHardware)
{
    harness::ParallelSweep sweep(0);
    EXPECT_GE(sweep.jobs(), 1u);
    EXPECT_EQ(harness::resolveJobs(5), 5u);
}

TEST(ParallelSweep, ResultsComeBackInCellOrder)
{
    harness::ParallelSweep sweep(8);
    auto out = sweep.run(64, [](std::size_t i) {
        return static_cast<int>(i) * 3;
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ParallelSweep, SerialPathRunsInOrderOnCallingThread)
{
    harness::ParallelSweep sweep(1);
    std::vector<std::size_t> order;  // safe: jobs=1 never spawns
    auto out = sweep.run(10, [&](std::size_t i) {
        order.push_back(i);
        return i;
    });
    std::vector<std::size_t> expect(10);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
    EXPECT_EQ(out, expect);
}

TEST(ParallelSweep, CellExceptionPropagates)
{
    harness::ParallelSweep sweep(4);
    EXPECT_THROW(sweep.run(16,
                           [](std::size_t i) {
                               if (i == 7)
                                   throw std::runtime_error("cell 7");
                               return i;
                           }),
                 std::runtime_error);
}

TEST(ParseJobs, ExtractsAndStripsEveryForm)
{
    std::vector<std::string> args = {"daemon=httpd", "--jobs", "3",
                                     "requests=4"};
    EXPECT_EQ(parseJobs(args), 3u);
    EXPECT_EQ(args, (std::vector<std::string>{"daemon=httpd",
                                              "requests=4"}));

    args = {"--jobs=6"};
    EXPECT_EQ(parseJobs(args), 6u);
    EXPECT_TRUE(args.empty());

    args = {"jobs=2", "stats=1"};
    EXPECT_EQ(parseJobs(args), 2u);
    EXPECT_EQ(args, (std::vector<std::string>{"stats=1"}));
}

TEST(ParseJobs, UnsetMeansZero)
{
    unsetenv("INDRA_JOBS");
    std::vector<std::string> args = {"daemon=httpd"};
    EXPECT_EQ(parseJobs(args), 0u);
}

TEST(ParseJobs, RejectsNegativeAndAbsurdCounts)
{
    unsetenv("INDRA_JOBS");
    std::vector<std::string> neg = {"--jobs", "-2"};
    EXPECT_DEATH(parseJobs(neg), "not a valid worker count");
    std::vector<std::string> huge = {"--jobs=99999"};
    EXPECT_DEATH(parseJobs(huge), "out of range");
    setenv("INDRA_JOBS", "-1", 1);
    std::vector<std::string> none = {"daemon=httpd"};
    EXPECT_DEATH(parseJobs(none), "not a valid worker count");
    unsetenv("INDRA_JOBS");
}

TEST(ParseJobs, EnvironmentFallbackAndCliOverride)
{
    setenv("INDRA_JOBS", "5", 1);
    std::vector<std::string> args = {"daemon=httpd"};
    EXPECT_EQ(parseJobs(args), 5u);
    args = {"--jobs", "2"};
    EXPECT_EQ(parseJobs(args), 2u);
    unsetenv("INDRA_JOBS");
}

namespace
{

/** A compact, exact fingerprint of one experiment cell's run. */
struct CellResult
{
    std::vector<std::uint64_t> seqs;
    std::vector<std::string> statuses;
    std::vector<Tick> starts;
    std::vector<Tick> ends;

    bool
    operator==(const CellResult &o) const
    {
        return seqs == o.seqs && statuses == o.statuses &&
            starts == o.starts && ends == o.ends;
    }
};

/**
 * One shared-nothing experiment cell: boots a fresh IndraSystem from
 * a cell-specific config and runs a script with periodic attacks —
 * covering core, monitor, checkpoint, and recovery code under
 * concurrent execution.
 */
CellResult
runCell(std::size_t i)
{
    const auto &daemons = net::standardDaemons();
    const auto &profile = daemons[i % daemons.size()];

    SystemConfig cfg;
    cfg.rngSeed = 1 + i / daemons.size();

    core::IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(profile);
    auto script = net::ClientScript::periodicAttack(
        6, net::AttackKind::StackSmash, 3);
    auto outcomes = sys.runScript(script, slot);

    CellResult r;
    for (const auto &o : outcomes) {
        r.seqs.push_back(o.seq);
        r.statuses.push_back(net::requestStatusName(o.status));
        r.starts.push_back(o.startTick);
        r.ends.push_back(o.endTick);
    }
    return r;
}

} // anonymous namespace

/**
 * The determinism contract of the harness: a jobs=8 sweep over twelve
 * full-system cells produces results identical — tick for tick — to
 * the jobs=1 serial path. This is the test to run under
 * -DINDRA_SANITIZE=thread (ctest -L harness).
 */
TEST(ParallelSweep, ParallelEqualsSerialOnRealSystems)
{
    setLogVerbosity(0);
    const std::size_t cells = 12;

    harness::ParallelSweep serial(1);
    auto expected = serial.run(cells, runCell);

    harness::ParallelSweep parallel(8);
    auto actual = parallel.run(cells, runCell);

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < cells; ++i)
        EXPECT_TRUE(actual[i] == expected[i]) << "cell " << i;

    // And a second parallel pass is stable against the first.
    auto again = parallel.run(cells, runCell);
    for (std::size_t i = 0; i < cells; ++i)
        EXPECT_TRUE(again[i] == expected[i]) << "cell " << i;
}

/** Concurrent warn()/inform() must not tear or race (TSAN target). */
TEST(Logging, ConcurrentLoggingIsSafe)
{
    setLogVerbosity(0);  // keep the test output quiet; still locks
    harness::ParallelSweep sweep(8);
    auto out = sweep.run(64, [](std::size_t i) {
        warn("harness log stress ", i);
        inform("harness log stress ", i);
        setLogVerbosity(0);
        return logVerbosity();
    });
    EXPECT_EQ(out.size(), 64u);
}
