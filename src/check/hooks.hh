/**
 * @file
 * The differential-oracle hook interface.
 *
 * IndraSystem notifies an attached CheckSink at the boundaries where
 * golden reference models can be captured or compared: service
 * deployment, request-epoch begin (the GTS bump), macro-checkpoint
 * capture, the monitor's per-request verdict, and recovery completion.
 *
 * The hooks follow the zero-cost-when-off contract of the fault and
 * tracing subsystems: every call site is a null check on the attached
 * sink, and each fires at most once per request event (never per
 * instruction), so a run with no checker attached keeps its timing
 * and its bench output bit-identical. The hooks are compiled into
 * every build; the oracle runs wherever a sink is attached.
 *
 * This header is dependency-free (sim/types.hh only) so core code can
 * include it without pulling the checking layer's implementation in.
 */

#ifndef INDRA_ORACLE_HOOKS_HH
#define INDRA_ORACLE_HOOKS_HH

#include "sim/types.hh"

namespace indra::check
{

/** Which rung of the recovery ladder just completed (mirrors
 *  core::RecoveryLevel without depending on core headers). */
enum class RestoreLevel : std::uint8_t
{
    Micro = 0,     //!< per-request rollback: memory must match the
                   //!< epoch-begin image
    Domain,        //!< confined domain rewind: rewound pages must
                   //!< match their anchors, all others the epoch image
    Macro,         //!< application checkpoint restore: memory must
                   //!< match the last macro capture
    Rejuvenation,  //!< full rebirth: memory must match the load image
};

/** Printable restore-level name. */
inline const char *
restoreLevelName(RestoreLevel l)
{
    switch (l) {
      case RestoreLevel::Micro:
        return "micro";
      case RestoreLevel::Domain:
        return "domain";
      case RestoreLevel::Macro:
        return "macro";
      case RestoreLevel::Rejuvenation:
        return "rejuvenation";
    }
    return "??";
}

/**
 * Receiver of oracle hook notifications. The production implementation
 * is check::SystemChecker; tests install doctored sinks (e.g. the
 * planted-bug wrapper) to prove the oracle catches real divergence.
 */
class CheckSink
{
  public:
    virtual ~CheckSink() = default;

    /** A service (or co-service) process finished deploying. */
    virtual void onDeploy(Pid pid) = 0;

    /**
     * A request epoch is beginning for @p pid: the GTS was bumped and
     * the recovery manager recorded its request snapshot. Memory at
     * this instant is what a micro recovery must restore.
     */
    virtual void onEpochBegin(Tick tick, Pid pid) = 0;

    /** A macro (application) checkpoint of @p pid was just captured. */
    virtual void onMacroCapture(Tick tick, Pid pid) = 0;

    /**
     * The monitor delivered its verdict on @p pid's current request:
     * @p detected is true when the request failed (violation/crash).
     * Cheap invariants are evaluated here.
     */
    virtual void onVerdict(Tick tick, Pid pid, bool detected) = 0;

    /**
     * The recovery ladder finished reviving @p pid at @p level. For
     * the oracle's benefit the system drains any lazy rollback before
     * this hook fires, so memory is directly comparable to the golden
     * image of the restored level.
     */
    virtual void onRecovered(Tick tick, Pid pid, RestoreLevel level) = 0;
};

} // namespace indra::check

#endif // INDRA_ORACLE_HOOKS_HH
