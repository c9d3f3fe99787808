/**
 * @file
 * Configuration of the service-level overload-resilience layer:
 * admission control, per-client-class rate limiting, trace-FIFO
 * backpressure watermarks, and the health state machine thresholds.
 *
 * A default-constructed ResilienceConfig arms nothing (unbounded
 * queue, rate limiter off, no watermarks): IndraSystem then creates no
 * ServiceGuard at all and every simulation is bit-identical to a
 * build without the subsystem — the same zero-cost-when-off contract
 * the fault-injection plan follows. Every knob is a `resilience.*`
 * key of the NodeConfig registry (core/node_config.cc).
 */

#ifndef INDRA_RESILIENCE_CONFIG_HH
#define INDRA_RESILIENCE_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "net/request.hh"
#include "resilience/rejuvenation.hh"
#include "sim/types.hh"

namespace indra::resilience
{

/** Knobs of one service's overload-resilience guard. */
struct ResilienceConfig
{
    // ------------------------------------------- admission control
    /**
     * Maximum admitted-but-not-yet-started requests (the daemon's
     * accept queue). 0 = unbounded (bounding disabled). The health
     * state machine scales the effective bound: Degraded halves it.
     */
    std::uint32_t queueBound = 0;

    /**
     * Token-bucket rate limiter per client class: tokens replenished
     * per million core cycles. 0 = that class is unlimited.
     */
    std::array<double, net::clientClassCount> tokensPerMCycle{};
    /** Bucket depth (burst allowance) per client class. */
    std::array<double, net::clientClassCount> tokenBurst{};

    // ------------------------------- monitor-saturation backpressure
    /**
     * Trace-FIFO occupancy (entries) at which backpressure engages
     * and the admission window collapses to one request. 0 = off.
     */
    std::uint32_t fifoHighWater = 0;
    /**
     * Occupancy at or below which the FIFO counts as drained and
     * slow-start re-admission begins. 0 = fifoHighWater / 2.
     */
    std::uint32_t fifoLowWater = 0;

    // --------------------------------------- health state machine
    /** Monitor violations (since last healthy) that trigger Degraded. */
    std::uint32_t degradeViolations = 3;
    /** Consecutive failed requests that turn Degraded into Quarantined. */
    std::uint32_t quarantineFailStreak = 3;
    /** Consecutive served requests that heal Degraded back to Healthy. */
    std::uint32_t healServedStreak = 8;
    /**
     * Queue occupancy as a fraction of the effective bound at which a
     * Healthy service is marked Degraded (load arriving faster than
     * it drains). Only meaningful with a nonzero queueBound.
     */
    double degradeQueueFraction = 0.75;
    /**
     * Heap pages a process may grow beyond its load-time footprint
     * before resource pressure marks the service Degraded. 0 = off.
     */
    std::uint64_t resourcePressurePages = 0;

    // --------------------------------------- per-domain health
    /**
     * Consecutive served requests inside a degraded isolated domain
     * that heal it (CheckpointScheme::DomainRewind only; the board is
     * created by the system, not by this config, so the knob does not
     * arm the guard by itself).
     */
    std::uint32_t domainHealStreak = 4;

    // ------------------------------------- proactive rejuvenation
    /**
     * Proactive restore policy (`rejuvenation.*` keys). Disarmed by
     * default; arming it alone is enough to create a guard.
     */
    RejuvenationConfig rejuvenation;

    /** True when any mechanism is armed (a guard will be created). */
    bool enabled() const;

    /** The low-water mark with the default applied. */
    std::uint32_t effectiveLowWater() const;

    /** One-line render of the armed knobs (bench cell labels). */
    std::string describe() const;
};

} // namespace indra::resilience

#endif // INDRA_RESILIENCE_CONFIG_HH
