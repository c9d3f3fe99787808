/**
 * @file
 * Proactive rejuvenation policies: restore the service from its
 * pristine load image *ahead* of a monitor verdict, so damage an
 * attacker plants between detections — dormant re-infection above
 * all — has a bounded lifetime. Three triggers, per the SoC-
 * rejuvenation literature on persistent attackers:
 *
 *   periodic    restore every `period` cycles of service time
 *   epoch       restore after `epochs` macro-checkpoint epochs
 *   suspicion   a deterministic suspicion score (violations,
 *               failures, corruption detections, queue pressure;
 *               decayed by served requests) crosses a threshold
 *
 * Every knob is a `rejuvenation.*` key of the NodeConfig registry
 * (core/node_config.cc), so the policy matrix is pure config.
 *
 * The policy is a pure scorekeeper — the storm driver asks `due()`
 * and performs the actual restore through the recovery ladder. All
 * state is a deterministic function of the observed event sequence.
 */

#ifndef INDRA_RESILIENCE_REJUVENATION_HH
#define INDRA_RESILIENCE_REJUVENATION_HH

#include <cstdint>
#include <string>

#include "net/request.hh"
#include "sim/types.hh"

namespace indra::resilience
{

/** What fires a proactive restore. */
enum class RejuvenationTrigger : std::uint8_t
{
    None = 0,  //!< reactive-only (the ladder escalates on its own)
    Periodic,  //!< wall-of-service-time period
    Epoch,     //!< macro-checkpoint epoch count
    Suspicion, //!< deterministic suspicion score
};

/** Number of distinct triggers (None included). */
constexpr std::size_t rejuvenationTriggerCount = 4;

/** Printable trigger name ("periodic", ...). */
const char *rejuvenationTriggerName(RejuvenationTrigger t);

/**
 * Parse a trigger name; unknown names are fatal, naming @p key and
 * every valid name.
 */
RejuvenationTrigger
rejuvenationTriggerFromName(const std::string &name,
                            const std::string &key = "rejuvenation.trigger");

/** Knobs of one service's proactive-rejuvenation policy. */
struct RejuvenationConfig
{
    RejuvenationTrigger trigger = RejuvenationTrigger::None;

    /** Periodic: cycles between restores. */
    Cycles period = 2000000;
    /** Epoch: macro-checkpoint epochs between restores. */
    std::uint64_t epochLimit = 32;
    /** Suspicion: score at which a restore fires. */
    double suspicionThreshold = 8.0;
    /** Suspicion: score shed by each served request. */
    double suspicionDecay = 1.0;
    /** Minimum gap between proactive restores, cycles. */
    Cycles cooldown = 200000;

    /** True when a proactive policy is armed. */
    bool enabled() const { return trigger != RejuvenationTrigger::None; }

    /** One-line render of the armed knobs (bench cell labels). */
    std::string describe() const;
};

/** The scorekeeper deciding when a proactive restore is due. */
class RejuvenationPolicy
{
  public:
    explicit RejuvenationPolicy(const RejuvenationConfig &cfg);

    /** A macro checkpoint was captured (one epoch elapsed). */
    void noteEpoch();

    /** One executed request's outcome plus corruption detections. */
    void noteOutcome(const net::RequestOutcome &out,
                     std::uint64_t corruption_delta);

    /** Accept-queue occupancy crossed the degrade fraction. */
    void noteQueuePressure();

    /** True when the policy wants a restore at @p now. */
    bool due(Tick now) const;

    /**
     * A restore completed at @p now — proactive or the reactive
     * ladder's own rejuvenation; both reset the trigger state.
     */
    void noteRestored(Tick now);

    double suspicion() const { return score; }
    std::uint64_t epochsSinceRestore() const { return epochs; }
    std::uint64_t restoresFired() const { return nRestores; }
    const RejuvenationConfig &config() const { return cfg; }

  private:
    const RejuvenationConfig cfg;
    Tick lastRestore = 0;
    std::uint64_t epochs = 0;
    double score = 0.0;
    std::uint64_t nRestores = 0;
};

} // namespace indra::resilience

#endif // INDRA_RESILIENCE_REJUVENATION_HH
