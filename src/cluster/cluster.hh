/**
 * @file
 * ClusterSim: a simulated fleet of revivable nodes behind a load
 * balancer.
 *
 * The paper's self-healing CMP serves daemons on one chip; the
 * north-star is a production-scale service sharding millions of
 * users across a fleet. This layer composes the existing node
 * simulation unchanged:
 *
 *   - Synthetic users with Zipf-skewed popularity are sharded to
 *     nodes by hash (cluster/zipf.hh); the balancer turns an
 *     aggregate Poisson arrival stream into per-node delivery
 *     streams through token-bucket links with doorbell-batched
 *     posting (cluster/interconnect.hh).
 *   - Each node is one IndraSystem + NodeHandle: per-node admission
 *     control, health machine, and recovery ladder all come from
 *     src/resilience and src/core untouched. Correlated attack
 *     storms arm the same adaptive adversary on every node (same
 *     seed -> the fleet is struck in phase).
 *   - Macro restores and rejuvenations contend for a shared M:N
 *     resurrector pool (cluster/pool.hh). Pool queueing delay is
 *     charged back to the waiting node's clock and added to the
 *     cluster's recovery-latency samples, so shrinking the
 *     resurrector:resurrectee ratio degrades goodput and inflates
 *     recovery p99 — the tradeoff bench_cluster_scale sweeps.
 *
 * Scheduling is round-based: each round injects the next window of
 * balanced arrivals, advances every node to the window bound in node
 * order on the calling thread, then applies the round's pool grants
 * in canonical (tick, node) order. Rounds with no work are skipped
 * calendar-style. A fleet has no thread code and shares nothing with
 * another fleet, so independent fleets may run on different threads
 * at once (bench_cluster_scale runs its cells that way). Where round
 * boundaries fall does not matter, with one known exception: a node
 * under an armed adaptive adversary can change with the round width,
 * because
 * AdaptiveAdversary::nextMove draws from its stream and updates its
 * state before it declines a move past its horizon, and each
 * NodeHandle::advanceTo call asks it once more (ROADMAP.md item 4,
 * "Results never depend on how time is sliced").
 */

#ifndef INDRA_CLUSTER_CLUSTER_HH
#define INDRA_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/interconnect.hh"
#include "cluster/pool.hh"
#include "cluster/zipf.hh"
#include "core/node_config.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "net/daemon_profile.hh"
#include "resilience/storm.hh"

namespace indra::harness
{
class ParallelSweep;
} // namespace indra::harness

namespace indra::cluster
{

/** The fleet's shape and offered load. */
struct ClusterConfig
{
    /** Resurrectee nodes behind the balancer. */
    std::uint32_t nodes = 4;
    /** Shared resurrector pool slots (the M of M:N). */
    std::uint32_t poolSlots = 2;

    /** Synthetic user population sharded across the fleet. */
    std::uint64_t users = 100000;
    /** Zipf skew of user popularity (0 = uniform). */
    double zipfTheta = 0.99;
    /** Aggregate legitimate requests the balancer offers. */
    std::uint64_t requests = 4000;
    /** Aggregate legitimate arrival rate, requests per Mcycle. */
    double arrivalRatePerMCycle = 20.0;
    /** Seed of the balancer's arrival/user draws. */
    std::uint64_t seed = 1;

    /** Scheduler round quantum, cycles. */
    Cycles windowCycles = 250000;
    /**
     * Floor on how long a macro restore / rejuvenation keeps its
     * pool slot busy (the measured recovery time is used when
     * longer).
     */
    Cycles restoreBusyCycles = 30000;

    /**
     * true: every node's adaptive adversary runs the same stream
     * (the fleet is struck in phase — worst case for the shared
     * pool); false: per-node streams decorrelate the storms.
     */
    bool correlatedAttack = true;

    /** Per-node link caps and posting costs. */
    LinkConfig link;
};

/** Everything one fleet run reports. */
struct ClusterReport
{
    std::uint32_t nodes = 0;
    std::uint32_t poolSlots = 0;

    /** Per-node storm reports, in node order. */
    std::vector<resilience::StormReport> nodeReports;
    /** Legit arrivals the balancer routed to each node. */
    std::vector<std::uint64_t> nodeArrivals;

    Tick endTick = 0;          //!< latest node completion tick
    std::uint64_t rounds = 0;  //!< scheduler rounds run

    // ------------------------------------------------ fleet totals
    std::uint64_t legitArrivals = 0;
    std::uint64_t legitServed = 0;
    std::uint64_t shedTotal = 0;
    std::uint64_t attackArrivals = 0;
    std::uint64_t reinfections = 0;
    std::uint64_t proactiveRestores = 0;
    std::uint64_t domainRewinds = 0;

    Cycles legitP50 = 0; //!< over every node's served legit requests
    Cycles legitP99 = 0;
    /**
     * p99 over every recovery on every node, with pool queueing
     * delay added to the macro/rejuvenation recoveries that waited —
     * the fleet-level recovery tail the pool ratio trades against.
     */
    Cycles recoveryP99 = 0;

    // ------------------------------------------------ pool pressure
    std::uint64_t poolGrants = 0;
    std::uint64_t poolQueuedGrants = 0;
    Cycles poolWaitTotal = 0;
    Cycles poolWaitP99 = 0;

    // ------------------------------------------------ interconnect
    std::uint64_t doorbells = 0;
    Cycles linkThrottleDelay = 0;

    /** Served legit requests per million cycles, fleet-wide. */
    double goodput() const;
    /** Executed requests (any class) per Mcycle, fleet-wide. */
    double rawThroughput() const;
    /** max node arrivals / mean node arrivals (sharding skew). */
    double arrivalImbalance() const;

    /** Field-wise equality: the determinism tests' one comparison. */
    bool operator==(const ClusterReport &) const = default;
};

/** One fleet experiment: construct, then run() exactly once. */
class ClusterSim
{
  public:
    /**
     * @param base    every node's build recipe (per-node rngSeed is
     *                derived from it by node index)
     * @param plan    per-node storm template; legitRequests is
     *                overridden to 0 (legit load arrives through the
     *                balancer) and horizon to the balancer's offered
     *                window. plan.adversary arms the correlated
     *                storm.
     * @param cc      fleet shape and offered load
     * @param profile service deployed on every node
     */
    ClusterSim(const core::NodeConfig &base,
               const resilience::StormPlan &plan,
               const ClusterConfig &cc,
               const net::DaemonProfile &profile);

    /** Run the fleet to completion on the calling thread. */
    ClusterReport run();

    /**
     * run(), kept for perfbench/perf_kernel.cpp alone. That file is
     * the repository benchmark, whose source changes only with the
     * benchmark's definition; the next such change calls run() and
     * deletes this overload. The sweep is not used.
     */
    ClusterReport run(harness::ParallelSweep &) { return run(); }

  private:
    core::NodeConfig baseConfig;
    resilience::StormPlan planTemplate;
    ClusterConfig cfg;
    net::DaemonProfile profile;
    bool ran = false;
};

} // namespace indra::cluster

#endif // INDRA_CLUSTER_CLUSTER_HH
