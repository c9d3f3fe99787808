/**
 * @file
 * NodeHandle: the one open-loop scheduler, a steppable facade over
 * one node's arrival timeline.
 *
 * Every open-loop workload runs on it: attack storms (runStorm below),
 * a cluster scheduler interleaving many nodes on a ParallelSweep, and
 * fixed arrival scripts fed through inject(). Each admitted request
 * is served through the public IndraSystem::processRequest. The
 * facade splits the loop into these pieces:
 *
 *   advanceTo(bound)   process every scheduled event up to @p bound
 *   inject(...)        push one externally routed arrival into the
 *                      schedule's dynamic heap (a load balancer's
 *                      delivery)
 *   drainEvents()      take the completed-work records accumulated
 *                      since the last drain (recovery durations feed
 *                      the cluster's shared resurrector pool)
 *   stall(delay)       charge an external delay (e.g. waiting for a
 *                      pool slot) to the node's core clock
 *   finish()           finalize percentiles/health and return the
 *                      StormReport
 *
 * runStorm is the run-to-completion helper — construct,
 * advanceTo(maxTick), finish(). The event sequence is derived from
 * the plan seed and the schedule alone, never from where the
 * advanceTo windows fall.
 *
 * A fixed arrival script (request i at tick t_i, no legit clients of
 * the handle's own) is a plan with legitRequests = 0 and deadline =
 * 0, the script injected up front, and advanceTo(maxTick). Closed
 * scripts with no arrival ticks use IndraSystem::runScript.
 *
 * A NodeHandle owns no system state; it borrows the IndraSystem and
 * slot it drives, which must outlive it. One handle per slot at a
 * time.
 */

#ifndef INDRA_CORE_NODE_HANDLE_HH
#define INDRA_CORE_NODE_HANDLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/request.hh"
#include "resilience/storm.hh"
#include "sim/types.hh"

namespace indra::core
{

class IndraSystem;

/** One completed piece of node work, drained by a cluster scheduler. */
struct NodeEvent
{
    Tick tick = 0; //!< completion tick
    /** Execution-order sequence number the handle stamped the
     *  request with (0-based). */
    std::uint64_t seq = 0;
    net::RequestStatus status = net::RequestStatus::Served;
    /** Monitor verdict for the request (None when nothing fired). */
    mon::Violation violation = mon::Violation::None;
    bool legit = false;
    bool probe = false;
    /** A proactive policy fired a restore before this request ran. */
    bool proactiveRestore = false;
    Cycles responseCycles = 0; //!< completion - arrival
    /** Cycles the proactive restore took (0 when none fired). */
    Cycles proactiveCycles = 0;
    /**
     * Completion - arrival for a request that needed any recovery
     * (micro, domain, macro, or rejuvenation); 0 when served or shed
     * cleanly. The cluster's resurrector pool charges its slots with
     * this.
     */
    Cycles recoveryCycles = 0;
};

/** The steppable storm driver for one service slot. */
class NodeHandle
{
  public:
    /**
     * Bind the storm described by @p plan to @p sys's slot
     * @p slot_idx and build its static arrival timelines. A plan with
     * legitRequests == 0 is accepted: a cluster-scheduled node or a
     * fixed arrival script receives its load through inject()
     * instead. A plan with legit requests needs a positive legit
     * arrival rate (fatal otherwise).
     */
    NodeHandle(IndraSystem &sys, std::size_t slot_idx,
               const resilience::StormPlan &plan);
    ~NodeHandle();

    NodeHandle(const NodeHandle &) = delete;
    NodeHandle &operator=(const NodeHandle &) = delete;

    /**
     * Record completed work as NodeEvents for drainEvents(). Off by
     * default, in which case the handle accumulates nothing.
     */
    void collectEvents(bool on);

    /**
     * Schedule one externally routed arrival at @p tick (which must
     * not precede work already processed — the cluster injects each
     * round's arrivals before advancing past them). An unassigned
     * req.domain is stamped round-robin exactly like a static
     * arrival's; @p legit marks the request as counting toward
     * goodput (it then retries with backoff when shed, and a zero
     * req.admissionDeadline is defaulted from the plan's).
     */
    void inject(Tick tick, const net::ServiceRequest &req,
                bool legit = true);

    /**
     * Process every scheduled event with tick <= @p bound, including
     * whatever they spawn inside the window (retries, probes,
     * adversary moves).
     * @return true while scheduled work remains past @p bound
     */
    bool advanceTo(Tick bound);

    /** True when no scheduled or queued work remains. */
    bool idle() const;

    /** Tick of the next scheduled work; maxTick when idle(). */
    Tick nextPendingTick() const;

    /** The node core's current tick. */
    Tick now() const;

    /**
     * Push the node's core clock forward @p delay cycles — the
     * cluster charges pool-slot queueing to the node this way, so a
     * contended resurrector pool degrades the node's goodput.
     */
    void stall(Cycles delay);

    /** Completed-work records since the last drain (then cleared). */
    std::vector<NodeEvent> drainEvents();

    /**
     * Finalize percentiles and health accounting and return the
     * report. Call once, after the storm drained; the handle must not
     * be advanced afterwards.
     */
    resilience::StormReport finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Drive the storm described by @p plan against @p sys's slot
 * @p slot_idx to completion: legit open-loop clients (with admission
 * deadline and retry/backoff) superimposed on bursty malicious
 * traffic, all admission decisions made by the slot's ServiceGuard
 * (when armed), and resurrector probes issued while the health
 * machine only admits probes.
 */
resilience::StormReport runStorm(IndraSystem &sys, std::size_t slot_idx,
                                 const resilience::StormPlan &plan);

} // namespace indra::core

#endif // INDRA_CORE_NODE_HANDLE_HH
