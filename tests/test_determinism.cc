/** @file End-to-end determinism and cross-configuration sanity: the
 * properties the benches rely on. */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/logging.hh"
#include "test_util.hh"

using namespace indra;
using core::IndraSystem;

namespace
{

SystemConfig
cfgWith(std::uint64_t seed)
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    cfg.rngSeed = seed;
    return cfg;
}

std::vector<net::RequestOutcome>
run(const SystemConfig &cfg, std::uint64_t requests,
    net::AttackKind kind = net::AttackKind::None,
    std::uint64_t period = 0)
{
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 20000;
    IndraSystem sys(core::NodeConfig{cfg});
    sys.boot();
    std::size_t slot = sys.deployService(profile);
    auto script = period
        ? net::ClientScript::periodicAttack(requests, kind, period)
        : net::ClientScript::benign(requests);
    return sys.runScript(script, slot);
}

} // anonymous namespace

TEST(Determinism, SameSeedSameTicks)
{
    auto a = run(cfgWith(42), 6, net::AttackKind::DosFlood, 3);
    auto b = run(cfgWith(42), 6, net::AttackKind::DosFlood, 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].startTick, b[i].startTick) << i;
        EXPECT_EQ(a[i].endTick, b[i].endTick) << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << i;
        EXPECT_EQ(a[i].status, b[i].status) << i;
    }
}

TEST(Determinism, DifferentSeedsDifferentStreams)
{
    auto a = run(cfgWith(1), 3);
    auto b = run(cfgWith(2), 3);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].endTick != b[i].endTick ||
            a[i].instructions != b[i].instructions) {
            any_diff = true;
        }
    }
    EXPECT_TRUE(any_diff);
}

TEST(ShapeSanity, DeltaBeatsPageCopyOnTheSameWorkload)
{
    setLogVerbosity(0);
    SystemConfig none = cfgWith(3);
    none.monitorEnabled = false;
    none.checkpointScheme = CheckpointScheme::None;
    SystemConfig delta = none;
    delta.checkpointScheme = CheckpointScheme::DeltaBackup;
    SystemConfig paged = none;
    paged.checkpointScheme = CheckpointScheme::VirtualCheckpoint;

    auto t = [&](const SystemConfig &c) {
        double sum = 0;
        for (const auto &o : run(c, 5))
            sum += static_cast<double>(o.responseTime());
        return sum;
    };
    double t_none = t(none);
    double t_delta = t(delta);
    double t_paged = t(paged);
    EXPECT_GE(t_delta, t_none);
    EXPECT_GT(t_paged, t_delta);  // the paper's headline crossover
    // Delta overhead is a small fraction of page-copy overhead.
    EXPECT_LT(t_delta - t_none, 0.5 * (t_paged - t_none));
}

TEST(ShapeSanity, SmallFifoIsSlower)
{
    setLogVerbosity(0);
    SystemConfig small = cfgWith(4);
    small.checkpointScheme = CheckpointScheme::None;
    small.traceFifoEntries = 4;
    SystemConfig big = small;
    big.traceFifoEntries = 64;

    auto t = [&](const SystemConfig &c) {
        double sum = 0;
        for (const auto &o : run(c, 5))
            sum += static_cast<double>(o.responseTime());
        return sum;
    };
    EXPECT_GT(t(small), t(big));
}

TEST(ShapeSanity, SharedResurrectorCostsMoreWithMoreCores)
{
    setLogVerbosity(0);
    SystemConfig one = cfgWith(5);
    one.checkpointScheme = CheckpointScheme::None;
    one.sharedResurrector = true;
    one.numResurrectees = 1;
    SystemConfig four = one;
    four.numResurrectees = 4;

    auto t = [&](const SystemConfig &c) {
        double sum = 0;
        for (const auto &o : run(c, 4))
            sum += static_cast<double>(o.responseTime());
        return sum;
    };
    EXPECT_GT(t(four), t(one));
}
