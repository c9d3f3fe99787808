/**
 * @file
 * SystemChecker: the production CheckSink. Attached to an
 * IndraSystem, it keeps golden RefMemory images per service process —
 * the deploy-time image, the last macro capture, and the current
 * request epoch's image — and compares physical
 * memory against the appropriate image whenever the recovery ladder
 * claims to have restored state. The invariant registry is evaluated
 * at every monitor verdict and after every recovery.
 *
 * Violations are collected (never thrown) and mirrored into the
 * system's structured event trace as OracleViolation events, so a
 * failing fuzz cell leaves a machine-readable trail.
 */

#ifndef INDRA_ORACLE_CHECKER_HH
#define INDRA_ORACLE_CHECKER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "check/hooks.hh"
#include "check/invariants.hh"
#include "check/ref_models.hh"

namespace indra::core { class IndraSystem; }

namespace indra::check
{

/** Golden images and bookkeeping for one service process. */
struct ServiceShadow
{
    RefMemory deployImage;  //!< rejuvenation must reproduce this
    RefMemory macroImage;   //!< macro restore must reproduce this
    RefMemory epochImage;   //!< micro rollback must reproduce this
    /**
     * Memory at the domain engine's last anchor reset (deploy, macro
     * restore, or rejuvenation — the points where the engine drops
     * its anchors): what a rewound page must be restored to.
     */
    RefMemory domainAnchorImage;
    std::uint64_t epoch = 0;
    /** corruptionDetected() baseline at epoch begin, so a recovery
     *  whose backup state was (detectably) corrupted this epoch is
     *  not held to byte-exactness it never promised — the engines
     *  refuse corrupt lines and the ladder escalates instead. */
    std::uint64_t corruptionAtEpoch = 0;
};

/** The production differential oracle. */
class SystemChecker : public CheckSink
{
  public:
    /** @p sys must outlive the checker. Attach with
     *  sys.attachChecker(&checker) before deploying services. */
    explicit SystemChecker(core::IndraSystem &sys);

    // ---------------------------------------------------- CheckSink
    void onDeploy(Pid pid) override;
    void onEpochBegin(Tick tick, Pid pid) override;
    void onMacroCapture(Tick tick, Pid pid) override;
    void onVerdict(Tick tick, Pid pid, bool detected) override;
    void onRecovered(Tick tick, Pid pid, RestoreLevel level) override;

    // ------------------------------------------------------ results
    bool ok() const { return fired.empty(); }
    const std::vector<Violation> &violations() const { return fired; }

    /** Invariant evaluations + memory compares performed. */
    std::uint64_t checksRun() const { return nChecks; }

    /** Memory compares performed (subset of checksRun()). */
    std::uint64_t comparesRun() const { return nCompares; }

    /** Current epoch counter of @p pid (0 before its first epoch). */
    std::uint64_t epochOf(Pid pid) const;

    InvariantRegistry &registry() { return reg; }

    /** Record a violation found outside the registry (also traced). */
    void report(Violation v);

  private:
    /** Capture every mapped page of @p pid into @p into. */
    void capture(RefMemory &into, Pid pid);

    /** Build the invariant view of @p pid's machinery. */
    CheckContext contextFor(Pid pid);

    /** Sum of backup corruption detections seen by @p pid's engines. */
    std::uint64_t corruptionCount(Pid pid);

    /** Compare phys against @p golden; report on divergence. */
    void compareMemory(const RefMemory &golden, Tick tick, Pid pid,
                       RestoreLevel level);

    /**
     * Audit a confined domain rewind: every page the engine rewound
     * must match the anchor image, every other epoch-captured page
     * must still match the epoch image (the rewind's blast radius is
     * exactly the attributed domain's non-shared pages).
     */
    void compareDomainRewind(ServiceShadow &shadow, Tick tick, Pid pid);

    ServiceShadow &shadowFor(Pid pid);

    core::IndraSystem &sys;
    InvariantRegistry reg;
    std::map<Pid, ServiceShadow> shadows;
    std::vector<Violation> fired;
    std::uint64_t nChecks = 0;
    std::uint64_t nCompares = 0;
};

/**
 * Test harness for the oracle's own sensitivity: forwards every hook
 * to the wrapped checker, but at a chosen epoch flips one byte of the
 * service's first data page *behind the backup engine's back* (a
 * direct physical write, invisible to the store hooks) — emulating a
 * backup write-path miss. A correct oracle must then flag the next
 * micro rollback as inexact.
 */
class PlantedBugSink : public CheckSink
{
  public:
    PlantedBugSink(SystemChecker &inner, core::IndraSystem &sys,
                   std::uint64_t plant_at_epoch);

    void onDeploy(Pid pid) override;
    void onEpochBegin(Tick tick, Pid pid) override;
    void onMacroCapture(Tick tick, Pid pid) override;
    void onVerdict(Tick tick, Pid pid, bool detected) override;
    void onRecovered(Tick tick, Pid pid, RestoreLevel level) override;

    bool planted() const { return didPlant; }

  private:
    SystemChecker &inner;
    core::IndraSystem &sys;
    std::uint64_t plantAtEpoch;
    bool didPlant = false;
};

} // namespace indra::check

#endif // INDRA_ORACLE_CHECKER_HH
