/**
 * @file
 * Configuration of the adaptive adversary: the closed-loop attacker
 * that observes the defense's own signals (verdict latency, FIFO
 * occupancy, health transitions, shed decisions) and adapts its
 * attack schedule in response.
 *
 * Every knob is an `adversary.*` key of the NodeConfig registry
 * (core/node_config.cc), so strategy matrices fall out of config
 * alone (the rdma-dm-sim `index.ablations.*` idiom).
 *
 * A default-constructed AdversaryConfig is disarmed: the storm driver
 * then builds the classic precomputed attack timeline and every run
 * is bit-identical to a build without this subsystem — the same
 * zero-cost-when-off contract the fault plan and guard follow.
 */

#ifndef INDRA_ADVERSARY_CONFIG_HH
#define INDRA_ADVERSARY_CONFIG_HH

#include <cstdint>
#include <string>

#include "net/request.hh"
#include "sim/types.hh"

namespace indra::adversary
{

/** How the attacker schedules its traffic. */
enum class AdversaryStrategy : std::uint8_t
{
    Fixed = 0,    //!< feedback-blind bursts on a fixed random cadence
    ProbeBurst,   //!< single probes; burst when FIFO nears high water
    Reinfect,     //!< dormant re-plant immediately after each revival
    LatencyTuner, //!< inter-burst gap tuned to detection latency
};

/** Number of distinct strategies. */
constexpr std::size_t adversaryStrategyCount = 4;

/** Printable strategy name ("fixed", "probe-burst", ...). */
const char *adversaryStrategyName(AdversaryStrategy s);

/**
 * Parse a strategy name; unknown names are fatal, naming @p key and
 * every valid name.
 */
AdversaryStrategy
adversaryStrategyFromName(const std::string &name,
                          const std::string &key = "adversary.strategy");

/** Knobs of one closed-loop attacker. */
struct AdversaryConfig
{
    /** Master switch; set by any adversary.strategy key. */
    bool armed = false;
    AdversaryStrategy strategy = AdversaryStrategy::Fixed;

    /** Total malicious requests the attacker may spend. */
    std::uint64_t budget = 64;
    /** Requests per burst move. */
    std::uint32_t burstLen = 4;
    /** Spacing between requests inside a burst, cycles. */
    Cycles burstSpacing = 200;
    /** Base inter-move gap (mean of the exponential cadence). */
    Cycles baseGap = 200000;
    /** Payload carried by burst requests. */
    net::AttackKind payload = net::AttackKind::StackSmash;

    /** ProbeBurst: burst when occupancy >= fraction * high water. */
    double occupancyFraction = 0.6;

    /** LatencyTuner: gap = latency estimate * gapFactor. */
    double gapFactor = 0.5;
    /** LatencyTuner: gap floor, cycles. */
    Cycles minGap = 20000;

    /** Reinfect: dormant plant lands this long after a revival. */
    Cycles reinfectDelay = 1000;

    /** True when the closed-loop attacker replaces the static storm. */
    bool enabled() const { return armed && budget > 0; }

    /** One-line render of the armed knobs (bench cell labels). */
    std::string describe() const;
};

} // namespace indra::adversary

#endif // INDRA_ADVERSARY_CONFIG_HH
