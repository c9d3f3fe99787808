/**
 * @file
 * Cluster-layer tests: the Zipf sharder, the shared resurrector
 * pool, the balancer links, the NodeConfig dotted-key router, the
 * NodeHandle stepping contract (window placement is invisible —
 * stepped reports equal core::runStorm's), and ClusterSim fleets run
 * concurrently on sweep threads equalling one on the calling thread.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hh"
#include "core/node_config.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "sim/random.hh"

using namespace indra;

namespace
{

// ------------------------------------------------------------- Zipf

TEST(ZipfSampler, DeterministicAndInRange)
{
    cluster::ZipfSampler zipf(1000, 0.99);
    Pcg32 rng(7, 1);
    for (int i = 0; i < 2000; ++i) {
        double u = rng.uniformReal();
        std::uint64_t a = zipf.sample(u);
        EXPECT_EQ(a, zipf.sample(u));
        EXPECT_LT(a, zipf.population());
    }
}

TEST(ZipfSampler, SkewFavorsLowRanks)
{
    cluster::ZipfSampler zipf(10000, 0.99);
    EXPECT_GT(zipf.probability(0), 10.0 * zipf.probability(99));
    EXPECT_GT(zipf.probability(99), zipf.probability(9999));
    // Probabilities sum to ~1 (the CDF is normalized and pinned).
    double s = 0;
    for (std::uint64_t r = 0; r < 10000; ++r)
        s += zipf.probability(r);
    EXPECT_NEAR(1.0, s, 1e-9);
}

TEST(ZipfSampler, ThetaZeroIsUniform)
{
    cluster::ZipfSampler zipf(100, 0.0);
    for (std::uint64_t r = 1; r < 100; ++r)
        EXPECT_NEAR(zipf.probability(0), zipf.probability(r), 1e-12);
}

TEST(ZipfSharder, StableAndCoversAllNodes)
{
    const std::uint32_t nodes = 7;
    std::vector<std::uint64_t> perNode(nodes, 0);
    for (std::uint64_t user = 0; user < 10000; ++user) {
        std::uint32_t s = cluster::shardOf(user, nodes);
        EXPECT_EQ(s, cluster::shardOf(user, nodes));
        ASSERT_LT(s, nodes);
        ++perNode[s];
    }
    // The multiplicative hash spreads a contiguous id range close to
    // evenly: every node within 2x of the mean.
    for (std::uint64_t n : perNode) {
        EXPECT_GT(n, 10000 / nodes / 2);
        EXPECT_LT(n, 2 * 10000 / nodes);
    }
}

// ------------------------------------------------- resurrector pool

TEST(ResurrectorPool, UncontendedGrantsStartImmediately)
{
    cluster::ResurrectorPool pool(2);
    auto a = pool.acquire(100, 50);
    EXPECT_EQ(100u, a.start);
    EXPECT_EQ(0u, a.queueDelay);
    // Second slot free: a concurrent demand does not queue.
    auto b = pool.acquire(120, 50);
    EXPECT_EQ(120u, b.start);
    EXPECT_EQ(0u, b.queueDelay);
    EXPECT_EQ(2u, pool.grants());
    EXPECT_EQ(0u, pool.queuedGrants());
}

TEST(ResurrectorPool, ContentionQueuesAndChargesDelay)
{
    cluster::ResurrectorPool pool(1);
    auto a = pool.acquire(100, 1000);
    EXPECT_EQ(0u, a.queueDelay);
    auto b = pool.acquire(200, 1000);
    EXPECT_EQ(1100u, b.start); // waits for the slot to free
    EXPECT_EQ(900u, b.queueDelay);
    EXPECT_EQ(1u, pool.queuedGrants());
    EXPECT_EQ(900u, pool.totalQueueDelay());
    EXPECT_EQ(900u, pool.maxQueueDelay());
    ASSERT_EQ(2u, pool.queueDelays().size());
}

TEST(ResurrectorPool, FifoFairnessInCanonicalOrder)
{
    // Demands applied in nondecreasing ready order receive
    // nondecreasing start times: no later demand overtakes.
    cluster::ResurrectorPool pool(2);
    Tick lastStart = 0;
    Tick ready = 0;
    for (int i = 0; i < 50; ++i) {
        ready += (i % 3) * 400;
        auto g = pool.acquire(ready, 2500);
        EXPECT_GE(g.start, lastStart);
        lastStart = g.start;
    }
}

TEST(ResurrectorPool, FewerSlotsNeverReduceQueueing)
{
    // The same demand stream against shrinking pools: total queueing
    // delay is monotone in contention.
    std::vector<std::pair<Tick, Cycles>> demands;
    for (int i = 0; i < 40; ++i)
        demands.push_back({static_cast<Tick>(i * 700), 3000});
    Cycles prev = 0;
    for (std::uint32_t slots : {8u, 4u, 2u, 1u}) {
        cluster::ResurrectorPool pool(slots);
        for (auto [ready, busy] : demands)
            pool.acquire(ready, busy);
        EXPECT_GE(pool.totalQueueDelay(), prev);
        prev = pool.totalQueueDelay();
    }
    EXPECT_GT(prev, 0u);
}

// ------------------------------------------------------------ links

TEST(NodeLink, UncappedPaysPostingCosts)
{
    cluster::LinkConfig lc;
    lc.ratePerMCycle = 0.0;
    lc.doorbellBatch = 4;
    lc.doorbellCycles = 400;
    lc.descCycles = 40;
    lc.wireCycles = 500;
    cluster::NodeLink link(lc);
    // First of the batch rings the doorbell...
    EXPECT_EQ(1000u + 400 + 40 + 500, link.deliver(1000));
    EXPECT_EQ(1u, link.doorbells());
    // ...the rest of the batch only pay the descriptor write.
    Tick prev = 1000 + 400 + 40;
    for (int i = 1; i < 4; ++i) {
        Tick d = link.deliver(1000);
        EXPECT_EQ(prev + 40 + 500, d);
        prev = d - 500;
    }
    EXPECT_EQ(1u, link.doorbells());
    // A fifth post opens the next batch: doorbell again.
    link.deliver(1000);
    EXPECT_EQ(2u, link.doorbells());
    EXPECT_EQ(5u, link.posted());
}

TEST(NodeLink, DeliveriesAreMonotone)
{
    cluster::LinkConfig lc;
    lc.ratePerMCycle = 5.0;
    lc.burst = 2.0;
    cluster::NodeLink link(lc);
    Pcg32 rng(3, 9);
    Tick ready = 0;
    Tick last = 0;
    for (int i = 0; i < 200; ++i) {
        ready += static_cast<Tick>(rng.uniformReal() * 10000);
        Tick d = link.deliver(ready);
        EXPECT_GE(d, last);
        EXPECT_GE(d, ready);
        last = d;
    }
}

TEST(NodeLink, TokenBucketCapsSustainedRate)
{
    cluster::LinkConfig lc;
    lc.ratePerMCycle = 2.0; // one token per 500k cycles
    lc.burst = 3.0;
    lc.doorbellBatch = 1000; // keep posting costs negligible
    lc.doorbellCycles = 0;
    lc.descCycles = 0;
    lc.wireCycles = 0;
    cluster::NodeLink link(lc);
    // A burst of simultaneous posts: the first `burst` ride the
    // bucket, the rest are spaced at the refill rate.
    std::vector<Tick> departs;
    for (int i = 0; i < 8; ++i)
        departs.push_back(link.deliver(0));
    EXPECT_EQ(0u, departs[0]);
    EXPECT_EQ(0u, departs[2]);
    for (int i = 3; i < 8; ++i)
        EXPECT_GE(departs[i] - departs[i - 1], 490000u);
    EXPECT_GT(link.throttleDelay(), 0u);
}

// ------------------------------------------------ NodeConfig router

TEST(NodeConfigRouter, RoutesByDottedPrefix)
{
    core::NodeConfig node;
    core::applyNodeSetting(node, "checkpointScheme", "domain-rewind");
    EXPECT_EQ(CheckpointScheme::DomainRewind,
              node.system.checkpointScheme);

    core::applyNodeSetting(node, "resilience.queue_bound", "9");
    EXPECT_EQ(9u, node.resilience.queueBound);

    core::applyNodeSetting(node, "rejuvenation.period", "123456");
    EXPECT_EQ(123456u, node.resilience.rejuvenation.period);

    core::applyNodeSetting(node, "adversary.budget", "77");
    EXPECT_EQ(77u, node.adversary.budget);

    core::applyNodeSetting(node, "domain.count", "16");
    EXPECT_EQ(16u, node.system.domainCount);

    EXPECT_TRUE(node.faults.empty());
    core::applyNodeSetting(node, "faults.plan", "macro-corrupt:0.5");
    EXPECT_FALSE(node.faults.empty());
    EXPECT_DOUBLE_EQ(
        0.5, node.faults.rate(faults::FaultKind::MacroCorrupt));
}

TEST(NodeConfigRouter, AppliesListsAndDiesOnGarbage)
{
    core::NodeConfig node;
    core::applyNodeSettings(
        node, {"traceFifoEntries=64", "resilience.queue_bound=5"});
    EXPECT_EQ(64u, node.system.traceFifoEntries);
    EXPECT_EQ(5u, node.resilience.queueBound);

    EXPECT_DEATH(core::applyNodeSetting(node, "no.such_key", "1"),
                 "unknown");
    EXPECT_DEATH(core::applyNodeSettings(node, {"notkeyvalue"}),
                 "key=value");
}

TEST(NodeConfigCompat, AggregateMatchesThreeArgCtor)
{
    // The positional three-argument NodeConfig and one assembled
    // member by member build identical machines: same deterministic
    // run, same report.
    SystemConfig cfg;
    cfg.physMemBytes = 64ULL * 1024 * 1024;
    resilience::ResilienceConfig rc;
    rc.queueBound = 6;

    resilience::StormPlan plan;
    plan.seed = 11;
    plan.legitRequests = 30;
    plan.legitRatePerMCycle = 2.0;
    plan.attackRatePerMCycle = 4.0;

    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 20000;

    auto runWith = [&](core::IndraSystem &sys) {
        sys.boot();
        std::size_t slot = sys.deployService(profile);
        return core::runStorm(sys, slot, plan);
    };
    core::NodeConfig members;
    members.system = cfg;
    members.resilience = rc;
    core::IndraSystem legacy(members);
    core::IndraSystem aggregate(
        core::NodeConfig{cfg, faults::FaultPlan(), rc});
    EXPECT_EQ(runWith(legacy), runWith(aggregate));
}

// --------------------------------------------- NodeHandle stepping

core::NodeConfig
stormNode()
{
    core::NodeConfig node;
    node.system.physMemBytes = 64ULL * 1024 * 1024;
    node.system.consecutiveFailureThreshold = 4;
    node.resilience.queueBound = 6;
    node.resilience.fifoHighWater = 24;
    node.resilience.degradeViolations = 2;
    node.resilience.quarantineFailStreak = 2;
    node.resilience.healServedStreak = 3;
    return node;
}

resilience::StormReport
runMonolith(const resilience::StormPlan &plan)
{
    core::IndraSystem sys(stormNode());
    sys.boot();
    std::size_t slot =
        sys.deployService(net::daemonByName("httpd"));
    return core::runStorm(sys, slot, plan);
}

resilience::StormReport
runStepped(const resilience::StormPlan &plan, Cycles window)
{
    core::IndraSystem sys(stormNode());
    sys.boot();
    std::size_t slot =
        sys.deployService(net::daemonByName("httpd"));
    core::NodeHandle node(sys, slot, plan);
    Tick bound = 0;
    while (true) {
        bound = saturatingAdd(bound, window);
        if (!node.advanceTo(bound))
            break;
    }
    EXPECT_TRUE(node.idle());
    EXPECT_EQ(maxTick, node.nextPendingTick());
    return node.finish();
}

TEST(NodeHandle, SteppingEqualsRunStormStaticStorm)
{
    resilience::StormPlan plan;
    plan.seed = 5;
    plan.legitRequests = 40;
    plan.legitRatePerMCycle = 2.0;
    plan.attackRatePerMCycle = 6.0;
    plan.burstLen = 3;
    plan.deadline = 1000000;
    resilience::StormReport mono = runMonolith(plan);
    // Window placement must be invisible: tiny, medium, and huge
    // stepping quanta all reproduce the monolithic report exactly.
    for (Cycles window : {50000u, 1048576u, 1u << 30})
        EXPECT_EQ(mono, runStepped(plan, window)) << "window " << window;
}

TEST(NodeHandle, SteppingEqualsRunStormAdaptiveAdversary)
{
    resilience::StormPlan plan;
    plan.seed = 9;
    plan.legitRequests = 30;
    plan.legitRatePerMCycle = 1.5;
    plan.deadline = 2000000;
    plan.adversary.armed = true;
    plan.adversary.strategy = adversary::AdversaryStrategy::Reinfect;
    plan.adversary.budget = 20;
    plan.adversary.burstLen = 4;
    plan.adversary.baseGap = 400000;
    plan.adversary.payload = net::AttackKind::StackSmash;
    plan.adversary.reinfectDelay = 100000;
    resilience::StormReport mono = runMonolith(plan);
    for (Cycles window : {100000u, 3000000u})
        EXPECT_EQ(mono, runStepped(plan, window)) << "window " << window;
}

TEST(NodeHandle, InjectedArrivalsAreServed)
{
    resilience::StormPlan plan;
    plan.seed = 3;
    plan.legitRequests = 0; // balancer-fed node
    plan.legitRatePerMCycle = 1.0;
    plan.horizon = 10000000;
    plan.deadline = 2000000;

    // A disarmed node (no guard): this test pins the inject/drain
    // mechanics, so nothing may shed. Keep the service fast relative
    // to the 300k-cycle injection spacing so the queue never builds.
    core::NodeConfig nc;
    nc.system.physMemBytes = 64ULL * 1024 * 1024;
    core::IndraSystem sys(nc);
    sys.boot();
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25000;
    std::size_t slot = sys.deployService(profile);
    core::NodeHandle node(sys, slot, plan);
    node.collectEvents(true);
    for (int i = 0; i < 10; ++i) {
        net::ServiceRequest req;
        req.attack = net::AttackKind::None;
        req.clientClass = net::ClientClass::Standard;
        node.inject(static_cast<Tick>(100000 + i * 300000), req);
    }
    while (node.advanceTo(saturatingAdd(node.now(), 1000000))) {
    }
    std::vector<core::NodeEvent> events = node.drainEvents();
    resilience::StormReport rep = node.finish();
    EXPECT_EQ(10u, rep.legitArrivals);
    EXPECT_EQ(10u, rep.legitServed);
    std::uint64_t served = 0;
    Tick last = 0;
    for (const core::NodeEvent &ev : events) {
        EXPECT_GE(ev.tick, last);
        last = ev.tick;
        if (ev.legit && !ev.probe &&
            ev.status == net::RequestStatus::Served)
            ++served;
    }
    EXPECT_EQ(10u, served);
}

TEST(NodeHandle, StallDelaysTheNodeClock)
{
    resilience::StormPlan plan;
    plan.seed = 3;
    plan.legitRequests = 0;
    plan.legitRatePerMCycle = 1.0;
    plan.horizon = 1000000;

    core::IndraSystem sys(stormNode());
    sys.boot();
    std::size_t slot =
        sys.deployService(net::daemonByName("httpd"));
    core::NodeHandle node(sys, slot, plan);
    Tick before = node.now();
    node.stall(123456);
    EXPECT_GE(node.now(), before + 123456);
}

// -------------------------------------------------------- ClusterSim

cluster::ClusterReport
runSmallCluster()
{
    core::NodeConfig node = stormNode();
    node.system.macroCheckpointPeriod = 10;
    node.system.rejuvenationCycles = 2000000;

    resilience::StormPlan plan;
    plan.seed = 1;
    plan.legitRatePerMCycle = 1.0;
    plan.deadline = 8000000;
    plan.probePeriod = 50000;
    plan.adversary.armed = true;
    plan.adversary.strategy = adversary::AdversaryStrategy::Reinfect;
    plan.adversary.budget = 10;
    plan.adversary.burstLen = 4;
    plan.adversary.baseGap = 500000;
    plan.adversary.payload = net::AttackKind::StackSmash;
    plan.adversary.reinfectDelay = 100000;

    cluster::ClusterConfig cc;
    cc.nodes = 4;
    cc.poolSlots = 2;
    cc.users = 5000;
    cc.requests = 300;
    cc.arrivalRatePerMCycle = 4.0;
    cc.link.ratePerMCycle = 40.0;

    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25000;

    cluster::ClusterSim sim(node, plan, cc, profile);
    return sim.run();
}

// Fleets on different threads share nothing: three run at once as
// the cells of a sweep each equal one run on the calling thread.
// bench_cluster_scale runs its cells this way.
TEST(ClusterSim, ConcurrentFleetsEqualOneOnTheCallingThread)
{
    harness::ParallelSweep sweep(3);
    std::vector<cluster::ClusterReport> concurrent =
        sweep.run(3, [](std::size_t) { return runSmallCluster(); });
    cluster::ClusterReport here = runSmallCluster();
    ASSERT_EQ(3u, concurrent.size());
    for (const cluster::ClusterReport &rep : concurrent)
        EXPECT_EQ(here, rep);
}

TEST(ClusterSim, LoadReachesEveryNodeAndPoolArbitrates)
{
    cluster::ClusterReport rep = runSmallCluster();
    EXPECT_EQ(4u, rep.nodes);
    EXPECT_EQ(300u, rep.legitArrivals);
    for (std::uint64_t n : rep.nodeArrivals)
        EXPECT_GT(n, 0u);
    EXPECT_GT(rep.legitServed, 0u);
    EXPECT_GT(rep.attackArrivals, 0u);
    EXPECT_GT(rep.poolGrants, 0u);
    EXPECT_GT(rep.doorbells, 0u);
    EXPECT_GT(rep.goodput(), 0.0);
    EXPECT_GE(rep.arrivalImbalance(), 1.0);
}

} // anonymous namespace
