/**
 * @file
 * The recovery manager: INDRA's hybrid dual recovery scheme
 * (Sections 3.3.2, 3.3.3; Figures 6 and 8), extended into a bounded
 * escalation ladder:
 *
 *   micro  ->  macro  ->  full service rejuvenation
 *
 * Micro recovery (per request): the resurrector stalls the faulty
 * resurrectee, arms the checkpoint engine's rollback, restores the
 * process context recorded when the GTS was last incremented, and
 * releases resources allocated since (closes newer files, kills newer
 * children, reclaims newer pages). Service resumes with the next
 * request immediately.
 *
 * Macro recovery: when micro recovery fails to revive the service
 * (`consecutiveFailureThreshold` failures in a row — the "dormant"
 * attack signature — or the micro backup state fails its checksum
 * verification, or no request snapshot exists), the manager falls back
 * to the slow application checkpoint taken every
 * `macroCheckpointPeriod` requests.
 *
 * Rejuvenation: when the macro checkpoint itself is corrupt, missing,
 * or `macroRetryLimit` consecutive macro rollbacks did not revive the
 * service, the manager re-initializes the service from its load-time
 * image (context, resources, and memory), discards all backup state,
 * and takes a fresh application checkpoint.
 */

#ifndef INDRA_CORE_RECOVERY_HH
#define INDRA_CORE_RECOVERY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "checkpoint/macro_ckpt.hh"
#include "checkpoint/policy.hh"
#include "cpu/core.hh"
#include "monitor/monitor.hh"
#include "obs/trace_log.hh"
#include "os/kernel.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::ckpt { class DomainRewindEngine; }

namespace indra::core
{

/** Which mechanism revived the service. */
enum class RecoveryLevel : std::uint8_t
{
    Micro,         //!< per-request delta rollback (swift)
    Domain,        //!< confined rewind of one isolated domain
    Macro,         //!< application checkpoint rollback (slow, rare)
    Rejuvenation,  //!< full service re-initialization (last resort)
};

/**
 * Per-service recovery state machine.
 */
class RecoveryManager
{
  public:
    /**
     * Captures the service's load-time image (context, resources and
     * memory) as the rejuvenation target, so construct this after the
     * application has been loaded into the process.
     */
    RecoveryManager(const SystemConfig &cfg,
                    ckpt::CheckpointPolicy &policy,
                    ckpt::MacroCheckpoint &macro, os::Kernel &kernel,
                    mem::PhysicalMemory &phys, Pid pid, cpu::Core &core,
                    mon::Monitor *monitor, stats::StatGroup &parent);

    /**
     * A new request is beginning (the GTS was just incremented):
     * record process context and resource allocation state (Fig. 6).
     */
    void noteRequestBegin(Tick tick);

    /** The request completed normally. */
    void noteSuccess();

    /**
     * The resurrector detected corruption or a crash at @p tick.
     * Walks the escalation ladder: micro recovery when a trusted
     * request snapshot exists and the failure streak is below the
     * threshold; macro rollback when micro is exhausted or its backup
     * state is corrupt; full rejuvenation when the macro level is
     * itself corrupt, missing, or exhausted.
     *
     * With a domain engine attached (CheckpointScheme::DomainRewind)
     * and a pending failure attribution, the swift rung becomes a
     * *confined* one: the per-request rollback is drained and only
     * the attributed domain's pages are rewound to their anchors
     * (RecoveryLevel::Domain). Attribution flagged as cross-domain
     * taint escalates to macro instead — a compartment rewind cannot
     * bound that blast radius. The consecutive-failure streak is NOT
     * reset by a domain rewind, so a domain that keeps failing still
     * climbs the ladder.
     */
    RecoveryLevel recover(Tick tick);

    /**
     * Attach the domain-rewind engine (nullable; only under
     * CheckpointScheme::DomainRewind). The engine is the same object
     * as the checkpoint policy — this just gives the ladder its
     * domain-typed view.
     */
    void setDomainEngine(ckpt::DomainRewindEngine *e)
    {
        domainEngine = e;
    }

    /** Confined domain rewinds performed by the ladder. */
    std::uint64_t domainRewinds() const;

    /** Rewinds refused for cross-domain taint (escalated to macro). */
    std::uint64_t crossEscalations() const;

    /**
     * Rebuild the service from its load image *without* a failure:
     * the proactive-rejuvenation path. Same effect as the ladder's
     * last resort — restore context, resources and memory, discard
     * all backup state, take a fresh application checkpoint — but
     * entered on a policy's schedule rather than an escalation.
     */
    void proactiveRestore(Tick tick) { rejuvenate(tick); }

    /** Take the periodic application checkpoint (Fig. 8). */
    Cycles takeMacroCheckpoint(Tick tick);

    std::uint32_t consecutiveFailures() const { return consecutive; }

    /** Macro recoveries since the last served request/rejuvenation. */
    std::uint32_t consecutiveMacroRecoveries() const
    {
        return macroStreak;
    }

    std::uint64_t rejuvenations() const;

    /** Micro recoveries refused because backup state was corrupt. */
    std::uint64_t integrityEscalations() const;

    /** Macro restore attempts that failed image verification. */
    std::uint64_t macroRestoreFailures() const;

    /** Recoveries entered without a request snapshot. */
    std::uint64_t missingSnapshotRecoveries() const;

    /** Resource-release failures absorbed during recoveries. */
    std::uint64_t releaseFailures() const;

    /**
     * Host memory held by the load-time image: its pages that own a
     * byte buffer. A page that was all zero at load owns none.
     */
    std::size_t bufferedPages() const;

    /**
     * Attach a structured event log (nullable); @p source identifies
     * the recovered service's core. Ladder steps (micro, macro
     * escalation, rejuvenation) are traced as they complete.
     */
    void setTraceLog(obs::TraceLog *log, std::uint32_t source);

  private:
    /** Bottom of the ladder: rebuild the service from load state. */
    RecoveryLevel rejuvenate(Tick tick);

    void accountRestore(const os::RestoreActions &actions);

    const SystemConfig &config;
    ckpt::CheckpointPolicy &policy;
    ckpt::MacroCheckpoint &macro;
    os::Kernel &kernel;
    mem::PhysicalMemory &phys;
    Pid pid;
    cpu::Core &core;
    mon::Monitor *monitor;
    ckpt::DomainRewindEngine *domainEngine = nullptr;
    obs::TraceLog *traceLog = nullptr;
    std::uint32_t traceSource = 0;

    os::ProcessContext::Snapshot contextSnap;
    os::ResourceSnapshot resourceSnap;
    bool haveSnap = false;
    std::uint32_t consecutive = 0;
    std::uint32_t macroStreak = 0;

    /** Load-time state: the rejuvenation target. */
    os::ProcessContext::Snapshot initialContext;
    os::ResourceSnapshot initialResources;
    /** One page of the load-time image. */
    struct LoadPage
    {
        /**
         * The page's load-time bytes, or none (and no buffer) when
         * its frame was a never-written zero frame at load (see
         * mem::PhysicalMemory::isZeroFrame): rejuvenation then zeroes
         * the frame instead of writing bytes back.
         */
        std::vector<std::uint8_t> bytes;
        /**
         * Checksum of the bytes, computed once at construction.
         * Rejuvenation writes these exact bytes back, so it can
         * re-seal the macro engine's page-checksum memo without
         * re-hashing.
         */
        std::uint64_t sum = 0;
        /**
         * The frame copy the bytes equal: frame heldPfn at write
         * version heldVersion. While it holds, rejuvenation skips
         * writing the page back.
         */
        Pfn heldPfn = invalidPfn;
        std::uint64_t heldVersion = 0;
    };
    std::unordered_map<Vpn, LoadPage> loadImage;

    stats::StatGroup statGroup;
    stats::Scalar statMicroRecoveries;
    stats::Scalar statDomainRewinds;
    stats::Scalar statCrossEscalations;
    stats::Scalar statMacroRecoveries;
    stats::Scalar statRejuvenations;
    stats::Scalar statIntegrityEscalations;
    stats::Scalar statMacroRestoreFailures;
    stats::Scalar statMissingSnapshotRecoveries;
    stats::Scalar statReleaseFailures;
    stats::Scalar statFilesClosed;
    stats::Scalar statChildrenKilled;
    stats::Scalar statPagesReclaimed;
};

} // namespace indra::core

#endif // INDRA_CORE_RECOVERY_HH
