/**
 * @file
 * The checkpoint-engine interface shared by the four memory-state
 * backup approaches of Table 3, plus common plumbing (line/page copy
 * helpers and the common statistics every engine reports).
 *
 * Lifecycle, following Figures 6 and 8:
 *
 *   onRequestBegin()  after the GTS was incremented for a new request
 *   onStore/onLoad()  around every architectural data access
 *   onFailure()       the resurrector detected corruption: arm
 *                     rollback to the state at the last request begin
 *
 * Engines do both the *functional* work (old bytes really move to
 * backup storage, rollback really restores them — verified by tests)
 * and the *timing* work (returning the cycles each action costs,
 * charged to the resurrectee's pipeline).
 */

#ifndef INDRA_CKPT_POLICY_HH
#define INDRA_CKPT_POLICY_HH

#include <cstdint>
#include <memory>

#include "cpu/hooks.hh"
#include "faults/fault_injector.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/trace_log.hh"
#include "os/address_space.hh"
#include "os/process.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::ckpt
{

/**
 * Base class for all engines.
 */
class CheckpointPolicy : public cpu::CheckpointHooks
{
  public:
    /**
     * @param cfg     system configuration (page/line geometry)
     * @param context process whose GTS drives checkpoint epochs
     * @param space   the process's address space
     * @param phys    functional memory
     * @param mem     resurrectee hierarchy used to charge copy traffic
     * @param parent  stat group
     * @param name    engine name for the stat subtree
     */
    CheckpointPolicy(const SystemConfig &cfg, os::ProcessContext &context,
                     os::AddressSpace &space, mem::PhysicalMemory &phys,
                     mem::MemHierarchy &mem, stats::StatGroup &parent,
                     const char *name);

    ~CheckpointPolicy() override = default;

    /** Engine name (Table 3 row). */
    virtual const char *name() const = 0;

    /**
     * A new request is about to be processed (GTS already bumped).
     * For eager engines this is where checkpoint copies happen.
     * @return cycles charged to the resurrectee
     */
    virtual Cycles onRequestBegin(Tick tick) = 0;

    /**
     * Corruption detected: arm/perform rollback of everything written
     * since the last onRequestBegin.
     * @return cycles of recovery work on the critical path
     */
    virtual Cycles onFailure(Tick tick) = 0;

    /**
     * Eagerly complete any deferred rollback work so memory is
     * byte-exact (used by tests, the eager-rollback ablation, and
     * before a macro checkpoint is captured).
     * @return cycles the eager completion would cost
     */
    virtual Cycles drainRollback(Tick tick) { (void)tick; return 0; }

    /**
     * Discard all backup/rollback state without applying it. Called
     * after a macro (application-checkpoint) restore, when the
     * restored image supersedes every pending micro rollback.
     */
    virtual void invalidate() {}

    /**
     * Verify the integrity of all backup state a micro recovery would
     * consume (checksums computed when the bytes entered backup
     * storage). Engines that keep no verifiable state return true.
     * A false return means micro recovery cannot be trusted and the
     * caller must escalate to macro rollback.
     */
    virtual bool verifyIntegrity(Tick tick) { (void)tick; return true; }

    /**
     * Attach a fault injector (nullable). Engines consult it to decide
     * whether to corrupt backup state as it is written; a null
     * injector leaves every code path bit-identical to a fault-free
     * build.
     */
    void setFaultInjector(faults::FaultInjector *inj) { injector = inj; }

    /**
     * Attach a structured event log (nullable); @p source identifies
     * the protected service's core. Engines trace rollback arming and
     * checksum-verification failures.
     */
    void
    setTraceLog(obs::TraceLog *log, std::uint32_t source)
    {
        traceLog = log;
        traceSource = source;
    }

    /** Backup-corruption events detected by checksum verification. */
    std::uint64_t corruptionDetected() const;

    /** Lines (backup granularity) copied to backup storage so far. */
    std::uint64_t linesBackedUp() const;

    /** Total cycles charged for backup work. */
    std::uint64_t backupCycles() const;

    /** Total cycles charged for recovery work. */
    std::uint64_t recoveryCycles() const;

  protected:
    /** Full-page functional copy (one flat memcpy, no staging). */
    void
    copyPage(Pfn dst_pfn, Pfn src_pfn)
    {
        phys.copy(dst_pfn, 0, src_pfn, 0, config.pageBytes);
    }

    // The three per-line helpers are inline: every engine calls them
    // for every backed-up or restored line, hundreds of millions of
    // times per storm.

    /** Copy one backup-granularity line between frames (functional). */
    void
    copyLine(Pfn dst_pfn, std::uint32_t dst_off, Pfn src_pfn,
             std::uint32_t src_off)
    {
        phys.copy(dst_pfn, dst_off, src_pfn, src_off,
                  config.backupLineBytes);
    }

    /** Timing: move one line through the L2/bus/DRAM path. */
    Cycles
    chargeLineTransfer(Tick tick, Addr cache_addr, bool is_write)
    {
        return memsys.lineTransfer(tick, cache_addr, is_write);
    }

    /** Timing: copy a whole page (read + write every line). */
    Cycles chargePageCopy(Tick tick, Pfn src_pfn, Pfn dst_pfn);

    /** Lines per page at backup granularity. */
    std::uint32_t linesPerPage() const { return geom.linesPerPage(); }

    const SystemConfig &config;
    const PageGeometry geom;
    os::ProcessContext &context;
    os::AddressSpace &space;
    mem::PhysicalMemory &phys;
    mem::MemHierarchy &memsys;
    faults::FaultInjector *injector = nullptr;
    obs::TraceLog *traceLog = nullptr;
    std::uint32_t traceSource = 0;

    stats::StatGroup statGroup;
    stats::Scalar statLinesBackedUp;
    stats::Scalar statPagesBackedUp;
    stats::Scalar statBackupCycles;
    stats::Scalar statRecoveryCycles;
    stats::Scalar statRollbacks;
    stats::Scalar statCorruptionDetected;
};

/**
 * No-op engine: no backup, no recovery. The normalization baseline.
 */
class NullPolicy : public CheckpointPolicy
{
  public:
    NullPolicy(const SystemConfig &cfg, os::ProcessContext &context,
               os::AddressSpace &space, mem::PhysicalMemory &phys,
               mem::MemHierarchy &mem, stats::StatGroup &parent);

    const char *name() const override { return "none"; }
    Cycles onRequestBegin(Tick) override { return 0; }
    Cycles onFailure(Tick) override { return 0; }
    Cycles onStore(Tick, Pid, Addr, std::uint32_t) override { return 0; }
    Cycles onLoad(Tick, Pid, Addr, std::uint32_t) override { return 0; }
};

/**
 * Build the engine selected by @p cfg.checkpointScheme.
 */
std::unique_ptr<CheckpointPolicy>
makePolicy(const SystemConfig &cfg, os::ProcessContext &context,
           os::AddressSpace &space, mem::PhysicalMemory &phys,
           mem::MemHierarchy &mem, stats::StatGroup &parent);

} // namespace indra::ckpt

#endif // INDRA_CKPT_POLICY_HH
