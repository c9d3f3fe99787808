/**
 * @file
 * ServiceGuard: the per-service bundle of the overload-resilience
 * layer — admission controller, health state machine, and
 * backpressure governor — plus the "resilience" stat subtree. One
 * guard hangs off each ServiceSlot when the ResilienceConfig arms
 * anything; with the default (disarmed) config no guard exists and
 * request processing is untouched.
 */

#ifndef INDRA_RESILIENCE_GUARD_HH
#define INDRA_RESILIENCE_GUARD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/request.hh"
#include "obs/trace_log.hh"
#include "resilience/admission.hh"
#include "resilience/backpressure.hh"
#include "resilience/domain_health.hh"
#include "resilience/health.hh"
#include "resilience/rejuvenation.hh"
#include "resilience/resilience_config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::resilience
{

/** The resilience front door of one deployed service. */
class ServiceGuard
{
  public:
    ServiceGuard(const ResilienceConfig &cfg,
                 stats::StatGroup &parent);

    /**
     * Decide one arrival at @p now: samples the trace-FIFO occupancy
     * into the backpressure governor, applies the health machine's
     * scale and quarantine filter, and runs admission control.
     * Also raises queue pressure on the health machine when the
     * post-admission occupancy crosses the degrade fraction.
     *
     * @p domain is the isolated domain the arrival is bound for
     * (domainUnassigned except under CheckpointScheme::DomainRewind):
     * Bulk traffic for a degraded domain is shed with
     * ShedReason::DomainDegraded before any token is spent, while all
     * other classes and domains pass through untouched.
     */
    AdmissionDecision tryAdmit(Tick now, net::ClientClass cls,
                               std::size_t queue_depth,
                               std::uint32_t fifo_occupancy,
                               std::uint32_t domain =
                                   net::domainUnassigned);

    /**
     * An admitted request's deadline expired at @p now before service
     * began; the caller drops it instead of executing it.
     */
    void shedDeadline(Tick now, net::ClientClass cls);

    /**
     * One executed request's outcome, with the number of
     * backup-corruption detections (checksum mismatches) it provoked
     * and the tick it completed at.
     */
    void observeOutcome(const net::RequestOutcome &out,
                        std::uint64_t corruption_delta, Tick now);

    /**
     * Current heap footprint of the service process. The first call
     * records the load-time baseline; later growth beyond
     * resourcePressurePages marks the service Degraded.
     */
    void noteHeapPages(std::uint64_t pages, Tick now);

    /** Account health-state residency up to @p end. */
    void finalize(Tick end);

    // ------------------------------------- proactive rejuvenation
    /** A macro checkpoint was captured (epoch accounting). */
    void noteMacroEpoch() { rejuv.noteEpoch(); }

    /** True when the proactive policy wants a restore at @p now. */
    bool proactiveRestoreDue(Tick now) const { return rejuv.due(now); }

    /**
     * A proactive restore completed at @p now: the health machine
     * enters Rejuvenating (preempting whatever state it was in) and
     * the policy's trigger state resets.
     */
    void noteProactiveRestore(Tick now);

    // --------------------------------------------- per-domain health
    /**
     * Arm the per-domain health board (DomainRewind scheme only).
     * Confined rewinds then degrade one compartment instead of the
     * node: DomainRewound outcomes are routed to the board and kept
     * away from the node-level HealthMonitor.
     */
    void enableDomains(std::uint32_t count);

    /** The per-domain board, or nullptr when never enabled. */
    const DomainHealthBoard *domains() const { return board.get(); }

    // ------------------------------------------------------- access
    const ResilienceConfig &config() const { return cfg; }
    const HealthMonitor &health() const { return mon; }
    const AdmissionController &admission() const { return adm; }
    const BackpressureGovernor &backpressure() const { return bp; }
    const RejuvenationPolicy &rejuvenation() const { return rejuv; }

    /** Proactive restores performed so far. */
    std::uint64_t proactiveRestores() const { return nProactive; }

    /** Sheds by reason, deadline sheds merged in. */
    std::uint64_t shedBy(net::ShedReason r) const;

    /** All sheds, front-door and deadline. */
    std::uint64_t shedTotal() const;

    /**
     * Attach a structured event log (nullable); @p source identifies
     * the guarded service. Sheds (front-door and deadline) and health
     * transitions are traced.
     */
    void setTraceLog(obs::TraceLog *log, std::uint32_t source);

  private:
    const ResilienceConfig cfg;
    AdmissionController adm;
    HealthMonitor mon;
    BackpressureGovernor bp;
    RejuvenationPolicy rejuv;
    std::unique_ptr<DomainHealthBoard> board;
    std::uint64_t nProactive = 0;
    std::uint64_t nDomainShed = 0;
    obs::TraceLog *traceLog = nullptr;
    std::uint32_t traceSource = 0;

    std::uint64_t nDeadline = 0;
    bool heapBaselineSet = false;
    std::uint64_t heapBaseline = 0;

    stats::StatGroup statGroup;
    std::vector<std::unique_ptr<stats::Formula>> formulas;
};

} // namespace indra::resilience

#endif // INDRA_RESILIENCE_GUARD_HH
