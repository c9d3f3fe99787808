/**
 * @file
 * The shared M:N resurrector pool.
 *
 * bench_abl_shared_resurrector explored N resurrectees sharing one
 * resurrector on one chip; a fleet generalizes this to M resurrector
 * slots serving N nodes. A node needing a macro restore or a
 * rejuvenation acquires a slot; when all M are busy the request
 * queues FIFO by (ready tick, node id), and the queueing delay both
 * feeds the cluster's recovery p99 and is charged back to the node's
 * clock (NodeHandle::stall), so an undersized pool visibly degrades
 * fleet goodput instead of hiding in a histogram.
 *
 * The pool is a deterministic calendar, not a thread pool: callers
 * present demands in a canonical order (the cluster scheduler sorts
 * each round's recovery events by (tick, node)), each acquire picks
 * the earliest-free slot (lowest index on ties), and every grant is
 * pure arithmetic on ticks.
 */

#ifndef INDRA_CLUSTER_POOL_HH
#define INDRA_CLUSTER_POOL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace indra::cluster
{

/** M resurrector slots shared by a fleet's restore/rejuvenate work. */
class ResurrectorPool
{
  public:
    /** @param slots resurrector slots M (must be nonzero) */
    explicit ResurrectorPool(std::uint32_t slots);

    /** One admitted restore: when it started and how long it waited. */
    struct Grant
    {
        Tick start = 0;        //!< when a slot became ours
        Cycles queueDelay = 0; //!< start - ready (0 = no contention)
    };

    /**
     * Acquire the earliest-available slot for a restore that is
     * ready at @p ready and keeps its resurrector busy @p busy
     * cycles. FIFO fairness holds when callers acquire in
     * non-decreasing (ready, node) order.
     */
    Grant acquire(Tick ready, Cycles busy);

    std::uint32_t slots() const
    {
        return static_cast<std::uint32_t>(freeAt.size());
    }

    std::uint64_t grants() const { return nGrants; }
    std::uint64_t queuedGrants() const { return nQueued; }
    Cycles totalQueueDelay() const { return totalDelay; }
    Cycles maxQueueDelay() const { return maxDelay; }

    /** Every grant's queueing delay, in acquire order (for p99). */
    const std::vector<Cycles> &queueDelays() const { return delays; }

  private:
    std::vector<Tick> freeAt; //!< per-slot next-free tick
    std::uint64_t nGrants = 0;
    std::uint64_t nQueued = 0;
    Cycles totalDelay = 0;
    Cycles maxDelay = 0;
    std::vector<Cycles> delays;
};

} // namespace indra::cluster

#endif // INDRA_CLUSTER_POOL_HH
