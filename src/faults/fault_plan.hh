/**
 * @file
 * Deterministic fault-injection plans.
 *
 * A FaultPlan names which component failures a run should suffer and
 * how often; a FaultInjector (fault_injector.hh) executes the plan
 * with one independent PCG32 stream per fault kind, so a campaign cell
 * is a pure function of (SystemConfig, FaultPlan, request script) and
 * parallel sweeps stay bit-identical regardless of job count.
 *
 * The kinds cover the dependability machinery itself — the components
 * the paper assumes perfect: the trace FIFO transport, the delta
 * backup pages, the memory update log, the macro checkpoint image, the
 * monitor's verdict path, and the kernel's resource release during
 * revival ("Unlimited Lives" / SoC-rejuvenation threat models).
 */

#ifndef INDRA_FAULTS_FAULT_PLAN_HH
#define INDRA_FAULTS_FAULT_PLAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace indra::faults
{

/** Component failures the injector can produce. */
enum class FaultKind : std::uint8_t
{
    TraceDrop,            //!< trace FIFO loses a record in transport
    TraceCorrupt,         //!< trace FIFO flips a bit in a record field
    MonitorFalseNegative, //!< monitor silently misses a real violation
    MonitorDelay,         //!< monitor verdict delayed by extra cycles
    DeltaFlip,            //!< bit flip in a delta backup page line
    LogFlip,              //!< bit flip in a memory-update-log entry
    MacroCorrupt,         //!< bit flip in the macro checkpoint image
    MacroTruncate,        //!< macro checkpoint image loses a page
    ReleaseFail,          //!< kernel fails to release one resource
};

/** Number of distinct fault kinds. */
constexpr std::size_t faultKindCount = 9;

/** Printable fault-kind name ("trace-drop", "delta-flip", ...). */
const char *faultKindName(FaultKind k);

/**
 * Parse a fault-kind name; unknown names are fatal, naming @p key and
 * every valid name.
 */
FaultKind faultKindFromName(const std::string &name,
                            const std::string &key = "faults.plan");

/** All kinds, in declaration order (campaign sweep axis). */
const std::array<FaultKind, faultKindCount> &allFaultKinds();

/**
 * The microarchitectural component a fault kind lands in — the
 * attribution unit of the vulnerability map (src/rca). Each kind
 * corrupts exactly one component, so sweeping kinds sweeps components
 * and every injection site carries both.
 */
enum class FaultComponent : std::uint8_t
{
    TraceTransport,  //!< trace FIFO transport (drop / record corrupt)
    MonitorVerdict,  //!< monitor verdict path (miss / delay)
    DeltaBackup,     //!< delta backup pages
    UpdateLog,       //!< memory update log entries
    MacroImage,      //!< macro checkpoint image
    KernelResources, //!< kernel resource release during revival
};

/** Number of distinct fault components. */
constexpr std::size_t faultComponentCount = 6;

/** Printable component name ("trace-transport", ...). */
const char *faultComponentName(FaultComponent c);

/** The component @p k corrupts (total function over FaultKind). */
FaultComponent componentOf(FaultKind k);

/** All components, in declaration order (vuln-map table axis). */
const std::array<FaultComponent, faultComponentCount> &
allFaultComponents();

/** One armed fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::TraceDrop;
    /** Per-opportunity Bernoulli injection probability. */
    double rate = 0.0;
    /**
     * Kind-specific magnitude. Only MonitorDelay uses it today: the
     * extra cycles added to a delayed verdict.
     */
    std::uint64_t magnitude = 0;
};

/**
 * The set of faults a run is subjected to. An empty plan (the
 * default) arms nothing: no injector RNG is ever drawn and every
 * consumer behaves exactly as without the subsystem.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Arm @p kind at @p rate (clamped to [0, 1] for programmatic
     * callers; parse() rejects a rate outside it instead).
     */
    FaultPlan &add(FaultKind kind, double rate,
                   std::uint64_t magnitude = 0);

    /** Injection probability for @p kind (0 when unarmed). */
    double rate(FaultKind kind) const;

    /** Magnitude for @p kind (0 when unarmed). */
    std::uint64_t magnitude(FaultKind kind) const;

    /** True when no fault is armed at a nonzero rate. */
    bool empty() const;

    /** Seed of the injector's per-kind RNG streams. */
    std::uint64_t seed() const { return rngSeed; }
    FaultPlan &setSeed(std::uint64_t s) { rngSeed = s; return *this; }

    /** Armed specs, in add() order (for reporting). */
    const std::vector<FaultSpec> &specs() const { return armed; }

    /**
     * Parse "kind:rate[:magnitude]" clauses separated by commas, e.g.
     * "delta-flip:0.01,monitor-delay:0.2:50000" (the faults.plan
     * setting). A malformed clause, a rate that is not a finite number
     * in [0, 1], or a magnitude that is not an unsigned integer is
     * fatal, naming the clause.
     */
    static FaultPlan parse(const std::string &text,
                           std::uint64_t seed = 1);

    /** Render as the parse() syntax. */
    std::string describe() const;

  private:
    std::vector<FaultSpec> armed;
    std::uint64_t rngSeed = 1;
};

} // namespace indra::faults

#endif // INDRA_FAULTS_FAULT_PLAN_HH
