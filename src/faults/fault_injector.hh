/**
 * @file
 * The fault injector: executes a FaultPlan against the narrow
 * injection points the dependability layers expose.
 *
 * Determinism contract: each fault kind draws from its own PCG32
 * stream (seeded from the plan seed and the kind id), so one kind's
 * draws never perturb another's, and an unarmed kind never draws at
 * all. Consumers hold a nullable FaultInjector pointer and call
 * fire()/pick() only on armed kinds, which keeps a null or empty-plan
 * run bit-identical to a build without the subsystem.
 *
 * Also home to checksum64(), the integrity seal the hardened
 * consumers (delta pages, update log, macro images) compute when
 * state enters backup storage and verify when it leaves.
 */

#ifndef INDRA_FAULTS_FAULT_INJECTOR_HH
#define INDRA_FAULTS_FAULT_INJECTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_plan.hh"
#include "obs/trace_log.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::faults
{

/**
 * Word-wise FNV-style seal over @p len bytes at @p data: from the
 * 64-bit FNV offset basis, each 8-byte word w (host byte order) steps
 * h = (h ^ w) * 0x100000001b3 mod 2^64, and trailing bytes step one at
 * a time. Each step is a bijection in h (the multiplier is odd) and in
 * the word (xor), so two equal-length inputs that differ in exactly
 * one word — in particular any single flipped bit — always seal to
 * different values. Sums are compared for equality only and never
 * leave the process.
 */
std::uint64_t checksum64(const void *data, std::size_t len);

/**
 * One fired injection, as recorded in the injector's append-only site
 * log: the identity (component x kind x per-kind seed-stream
 * position) that root-cause analysis (src/rca) attributes campaign
 * outcomes back to. streamPos is the 1-based ordinal of the firing
 * within its kind's PCG32 stream, so (plan seed, kind, streamPos)
 * names the exact Bernoulli draw that fired — replayable identity in
 * the InjectV sense. The global index of a site in the log is its
 * FaultSiteId, threaded through obs trace events and check oracle
 * violations.
 */
struct FaultSite
{
    FaultKind kind = FaultKind::TraceDrop;
    FaultComponent component = FaultComponent::TraceTransport;
    /** Injector clock at the firing (the enclosing request's start
     *  tick — see setNow()); 0 before any request ran. */
    Tick tick = 0;
    /** 1-based per-kind firing ordinal (== injected(kind) after). */
    std::uint64_t streamPos = 0;
};

/**
 * Per-system fault oracle. One instance per IndraSystem; every
 * injection site asks it whether (and how) to fail.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, stats::StatGroup &parent);

    /** The plan this injector executes. */
    const FaultPlan &plan() const { return thePlan; }

    /** True when @p kind is armed at a nonzero rate. */
    bool
    armed(FaultKind kind) const
    {
        return rates[index(kind)] > 0.0;
    }

    /**
     * One injection opportunity for @p kind: Bernoulli(rate). Draws
     * RNG (and counts the injection when it fires) only when the kind
     * is armed.
     */
    bool fire(FaultKind kind);

    /**
     * Auxiliary draw from @p kind's stream, uniform in [0, bound).
     * Used to pick the bit/page/byte a fired fault lands on; call only
     * after fire() returned true so unarmed runs never draw.
     */
    std::uint32_t pick(FaultKind kind, std::uint32_t bound);

    /**
     * Extra verdict latency for this detection: plan magnitude cycles
     * when MonitorDelay fires, else 0.
     */
    Cycles verdictDelay();

    /**
     * Attach a structured event log (nullable); @p source identifies
     * the service whose injection sites consult this injector. The
     * injector has no clock of its own — it fires inside another
     * component's action — so injections are stamped with the log's
     * current now() (advanced by the enclosing request/action).
     */
    void
    setTraceLog(obs::TraceLog *log, std::uint32_t source)
    {
        traceLog = log;
        traceSource = source;
    }

    /** Times @p kind actually fired so far. */
    std::uint64_t injected(FaultKind kind) const;

    /** Total injections across all kinds. */
    std::uint64_t totalInjected() const;

    /**
     * Advance the injector's own clock (monotone, like
     * TraceLog::setNow). The system stamps it with each request's
     * start tick — unconditionally, even with tracing compiled out —
     * so site-log entries carry the request window they fired in.
     */
    void
    setNow(Tick tick)
    {
        if (tick > curTick)
            curTick = tick;
    }

    /** The injector's current clock. */
    Tick now() const { return curTick; }

    /**
     * The append-only site log: one entry per fired injection, in
     * firing order. Index i in this vector is fault site id i — the
     * identity trace events (FaultInjected a1) and oracle violations
     * (Violation::faultSitesSeen) refer to. Never truncated or
     * reordered; sites().size() == totalInjected() always (pinned by
     * tests/test_rca.cc).
     */
    const std::vector<FaultSite> &sites() const { return siteLog; }

  private:
    static std::size_t
    index(FaultKind kind)
    {
        return static_cast<std::size_t>(kind);
    }

    FaultPlan thePlan;
    obs::TraceLog *traceLog = nullptr;
    std::uint32_t traceSource = 0;
    Tick curTick = 0;
    std::array<double, faultKindCount> rates{};
    std::array<Pcg32, faultKindCount> streams;
    std::array<std::uint64_t, faultKindCount> fired{};
    std::vector<FaultSite> siteLog;

    stats::StatGroup statGroup;
    std::vector<std::unique_ptr<stats::Scalar>> statInjected;
};

} // namespace indra::faults

#endif // INDRA_FAULTS_FAULT_INJECTOR_HH
