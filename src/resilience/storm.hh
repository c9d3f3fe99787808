/**
 * @file
 * Attack-storm workload description and its measured report.
 *
 * A storm superimposes a legitimate open-loop client population on a
 * bursty malicious stream. Legitimate clients carry an admission
 * deadline and retry shed requests with exponential backoff and
 * deterministic jitter; the report separates goodput (legitimate
 * requests actually served, per million cycles) from raw throughput
 * (everything the service executed, attacks included).
 *
 * The arrival timelines are derived from the plan's seed alone, so a
 * fixed-seed storm is bit-identical on any ParallelSweep --jobs.
 */

#ifndef INDRA_RESILIENCE_STORM_HH
#define INDRA_RESILIENCE_STORM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "adversary/adversary_config.hh"
#include "net/request.hh"
#include "resilience/health.hh"
#include "resilience/retry.hh"
#include "sim/types.hh"

namespace indra::resilience
{

/** One attack-storm experiment on one service. */
struct StormPlan
{
    /** Seed of every stochastic choice in the storm timelines. */
    std::uint64_t seed = 1;

    /** Legitimate (Standard-class) logical requests to offer. */
    std::uint64_t legitRequests = 200;
    /** Mean legitimate arrival rate, requests per million cycles. */
    double legitRatePerMCycle = 10.0;

    /**
     * Mean malicious arrival rate, individual requests per million
     * cycles, delivered in back-to-back bursts. 0 = no storm.
     */
    double attackRatePerMCycle = 0.0;
    /** Malicious requests per burst. */
    std::uint32_t burstLen = 1;
    /** Spacing between requests inside a burst, cycles. */
    Cycles burstSpacing = 200;
    /** Payload carried by storm requests. */
    net::AttackKind attackKind = net::AttackKind::StackSmash;
    /**
     * Open the storm with one Dormant plant so damage surfaces in
     * later benign traffic (probes crash until rejuvenation heals
     * the service) — the persistent-attack revival scenario.
     */
    bool plantDormant = false;

    /** Admission deadline on legitimate requests (0 = none). */
    Cycles deadline = 400000;
    /** Legitimate-client retry discipline. */
    BackoffPolicy backoff;

    /**
     * Externally driven offered-load horizon, cluster mode's knob:
     * the window attacks (and adaptive-adversary moves) may land in
     * is the *later* of the static legit timeline's end and this
     * bound, so a node fed through NodeHandle::inject() alone
     * (legitRequests == 0) still sees its attackers active for the
     * whole cluster run. 0 (the default) leaves the classic
     * derivation untouched.
     */
    Tick horizon = 0;

    /** Probe cadence while the service only admits probes. */
    Cycles probePeriod = 100000;
    /** Probes to give up after (guards un-revivable configs). */
    std::uint64_t probeBudget = 256;

    /**
     * Closed-loop adaptive attacker. When enabled() it REPLACES the
     * static attack timeline (attackRatePerMCycle, burstLen,
     * plantDormant are ignored): malicious arrivals are planned one
     * move at a time from the defense signals observed mid-run, and
     * enter the schedule through its dynamic heap. Disarmed (the
     * default), the storm is bit-identical to the pre-adversary
     * build.
     */
    adversary::AdversaryConfig adversary;
};

/** Everything a storm cell reports. */
struct StormReport
{
    // -------------------------------------------------- load offered
    std::uint64_t legitArrivals = 0;  //!< logical legit requests
    std::uint64_t attackArrivals = 0; //!< malicious requests offered
    std::uint64_t probes = 0;         //!< probes issued

    // ------------------------------------------------- dispositions
    std::uint64_t legitServed = 0;  //!< served legit requests
    std::uint64_t legitFailed = 0;  //!< executed but not Served
    std::uint64_t legitGaveUp = 0;  //!< retries exhausted, shed for good
    std::uint64_t retries = 0;      //!< retry attempts scheduled
    std::uint64_t attackExecuted = 0;
    std::uint64_t probesServed = 0;
    std::uint64_t executed = 0;     //!< requests that reached the core
    /** Sheds by reason (indexed by net::ShedReason). */
    std::array<std::uint64_t, net::shedReasonCount> sheds{};

    // ------------------------------------------------------- timing
    Tick endTick = 0;         //!< completion tick of the last request
    Cycles legitP50 = 0;      //!< median legit response time
    Cycles legitP99 = 0;      //!< p99 legit response time

    // ------------------------------------------------------- health
    std::array<Cycles, healthStateCount> timeIn{};
    std::uint64_t transitions = 0;
    std::uint64_t fullCycles = 0;
    std::uint64_t bpEngagements = 0;
    /**
     * Executed requests from the first departure from Healthy until
     * health returned to Healthy (0 when it never left, or never
     * came back).
     */
    std::uint64_t requestsToRevival = 0;

    // ------------------------------------ adversary & rejuvenation
    std::uint64_t adversaryMoves = 0;    //!< attack moves planned
    std::uint64_t adversaryRequests = 0; //!< requests those moves spent
    /**
     * Times dormant damage was found planted again after a heal
     * (rejuvenation, macro restore, or proactive restore) — the
     * re-infection count the revival claim is judged by.
     */
    std::uint64_t reinfections = 0;
    /** First heal -> first re-infection, cycles (0 = never). */
    Cycles timeToReinfection = 0;
    /** Restores fired by the proactive policy ahead of a verdict. */
    std::uint64_t proactiveRestores = 0;
    /** p99 latency of requests that needed any recovery (0 = none). */
    Cycles recoveryP99 = 0;

    // ------------------------------------------------ domain rewind
    /** Requests revived by a confined domain rewind. */
    std::uint64_t domainRewinds = 0;
    /**
     * Confined rewinds that left dormant damage alive — the
     * DomainRewindClearsDormant violation count (must stay 0: a
     * rewind always targets the planted domain, or escalates).
     */
    std::uint64_t dormantAfterRewind = 0;

    /** Total sheds across all reasons. */
    std::uint64_t shedTotal() const;

    /** Served legit requests per million cycles. */
    double goodput() const;

    /** Executed requests (any class) per million cycles. */
    double rawThroughput() const;

    /** Field-wise equality: the determinism tests' one comparison. */
    bool operator==(const StormReport &) const = default;
};

/**
 * The @p p-th percentile (0..100) of @p samples by nearest-rank on a
 * copy; 0 when empty. Shared by the storm loop and its tests.
 */
Cycles percentile(std::vector<Cycles> samples, double p);

} // namespace indra::resilience

#endif // INDRA_RESILIENCE_STORM_HH
