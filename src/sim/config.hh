/**
 * @file
 * System configuration: Table 4 of the paper plus every INDRA knob.
 *
 * Defaults reproduce the evaluation platform of the paper: an 8-wide
 * core, 16KB direct-mapped split L1s with 32B lines, a 512KB 4-way
 * unified write-back L2 with 64B lines per core, 4-way 128/256-entry
 * I/D TLBs, a 200MHz 8-byte memory bus, and a PC-SDRAM DRAM model with
 * CAS 20 / RP 7 / RCD 7 (memory-bus clocks).
 */

#ifndef INDRA_SIM_CONFIG_HH
#define INDRA_SIM_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "sim/types.hh"

namespace indra
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name;
    std::uint64_t sizeBytes;
    std::uint32_t lineBytes;
    std::uint32_t associativity;  //!< 1 == direct mapped
    Cycles hitLatency;
    bool writeBack;

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / associativity; }
};

/** Geometry of one TLB. */
struct TlbConfig
{
    std::string name;
    std::uint32_t entries;
    std::uint32_t associativity;
    Cycles missPenalty;  //!< page-table walk cost in core cycles
};

/** PC-SDRAM timing (Table 4; latencies in memory-bus clocks). */
struct DramConfig
{
    std::uint32_t numBanks = 4;
    std::uint32_t rowBytes = 4096;       //!< row-buffer (DRAM page) size
    std::uint32_t casLatency = 20;       //!< CAS, bus clocks
    std::uint32_t prechargeLatency = 7;  //!< RP, bus clocks
    std::uint32_t rasToCasLatency = 7;   //!< RCD, bus clocks
};

/** Which checkpoint engine backs memory state (Table 3 rows). */
enum class CheckpointScheme : std::uint8_t
{
    None,                //!< no backup (normalization baseline)
    DeltaBackup,         //!< INDRA: delta pages, dirty-line granularity
    VirtualCheckpoint,   //!< hardware virtual ckpt: copy page on demand
    MemoryUpdateLog,     //!< DIRA-style per-write undo log
    SoftwareCheckpoint,  //!< libckpt-style: page copy after a wp fault
    DomainRewind,        //!< isolated-domain rewind: confined rollback
};

/** Printable name of a checkpoint scheme. */
const char *checkpointSchemeName(CheckpointScheme s);

/**
 * The full system configuration. A default-constructed SystemConfig is
 * the paper's platform; benches tweak individual fields for sweeps.
 */
struct SystemConfig
{
    // ----------------------------------------------------------- cores
    std::uint32_t numResurrectees = 1;
    std::uint32_t numResurrectors = 1;
    std::uint32_t fetchWidth = 8;
    std::uint32_t commitWidth = 8;
    /** Core clock in MHz; the 200MHz bus gives a 5:1 ratio. */
    std::uint32_t coreClockMHz = 1000;

    // ---------------------------------------------------------- memory
    CacheConfig l1i{"l1i", 16 * 1024, 32, 1, 1, false};
    CacheConfig l1d{"l1d", 16 * 1024, 32, 1, 1, true};
    CacheConfig l2{"l2", 512 * 1024, 64, 4, 8, true};
    TlbConfig itlb{"itlb", 128, 4, 30};
    TlbConfig dtlb{"dtlb", 256, 4, 30};
    DramConfig dram;
    std::uint32_t busClockMHz = 200;
    std::uint32_t busWidthBytes = 8;
    std::uint32_t pageBytes = 4096;
    /** Physical memory available to resurrectee processes. */
    std::uint64_t physMemBytes = 256ULL * 1024 * 1024;

    // ----------------------------------------------------------- INDRA
    /**
     * Asymmetric privilege configuration (Section 2.3.1). When false
     * the machine boots symmetric (Section 2.3.4): every core equal,
     * no watchdog, no monitor, no resurrector memory carve-out.
     */
    bool asymmetricMode = true;
    /** Entries in the resurrectee->resurrector trace FIFO. */
    std::uint32_t traceFifoEntries = 32;
    /** Entries in the code-origin filter CAM (0 disables filtering). */
    std::uint32_t filterCamEntries = 32;
    /**
     * Resurrector cycles per check. The resurrector is itself an
     * 8-wide core, so "tens to hundreds of instructions" per verified
     * event (Section 3.2.5) translate to a handful of cycles for the
     * hot shadow-stack compare up to tens of cycles for a symbol-table
     * walk.
     */
    Cycles codeOriginCheckCycles = 200;
    /** Resurrector cycles to verify one call/return record. */
    Cycles callReturnCheckCycles = 70;
    /** Resurrector cycles to verify one control-transfer record. */
    Cycles ctrlTransferCheckCycles = 160;
    /** Fixed resurrector overhead to dequeue any record. */
    Cycles recordDequeueCycles = 8;

    /** Memory-state backup engine for the resurrectees. */
    CheckpointScheme checkpointScheme = CheckpointScheme::DeltaBackup;
    /** Backup granularity in bytes (the L2 line in the paper). */
    std::uint32_t backupLineBytes = 64;
    /** Whether the security monitor runs at all. */
    bool monitorEnabled = true;
    /**
     * One resurrector time-slices across all resurrectees (the
     * paper's base configuration) instead of one resurrector per
     * resurrectee: every check takes numResurrectees times longer
     * from each resurrectee's point of view.
     */
    bool sharedResurrector = false;
    /**
     * Ablation: complete all pending rollback eagerly at recovery
     * time instead of lazily on demand (Figure 5's alternative).
     */
    bool eagerRollback = false;
    /** Cycles to fetch a backup page record missing from the TLB. */
    Cycles backupRecordFetchCycles = 20;
    /** Exception cost of allocating a fresh backup page (Fig. 4). */
    Cycles backupPageAllocCycles = 200;
    /** Cycles to arm one backup page record at failure (Fig. 6). */
    Cycles rollbackArmCycles = 12;
    /** Cycles to update one page translation (remap recovery). */
    Cycles pageRemapCycles = 30;
    /** Per-entry undo cost when walking a memory update log. */
    Cycles logUndoCycles = 30;
    /** Per-store instrumentation + append cost of the update log. */
    Cycles logAppendCycles = 6;
    /** Write-protect fault cost of software (libckpt) checkpointing. */
    Cycles writeProtectFaultCycles = 1200;
    /** Per-page setup cost of a whole-page checkpoint copy. */
    Cycles pageCopySetupCycles = 8000;

    // -------------------------------------------------- domain rewind
    /**
     * Number of isolated domains the resurrectee's address space is
     * partitioned into under CheckpointScheme::DomainRewind. Pages
     * are claimed by the first domain that writes them; a rewind
     * restores only the attributed domain's pages.
     */
    std::uint32_t domainCount = 4;
    /**
     * Fixed cost of initiating a confined domain rewind (monitor
     * attribution walk + domain descriptor programming), on top of
     * the per-page copy charges.
     */
    Cycles domainRewindSetupCycles = 2000;

    // -------------------------------------------------- hybrid recovery
    /** Macro application checkpoint period, in requests (Fig. 8). */
    std::uint64_t macroCheckpointPeriod = 10000;
    /** Consecutive micro-recovery failures before macro rollback. */
    std::uint32_t consecutiveFailureThreshold = 3;
    /**
     * Consecutive macro recoveries (no intervening served request)
     * before the ladder escalates to full service rejuvenation —
     * macro rollback is evidently not reviving the service either.
     */
    std::uint32_t macroRetryLimit = 3;
    /** Resurrector->resurrectee interrupt + pipeline flush cost. */
    Cycles recoveryInterruptCycles = 400;
    /** Cost of a full service restart when INDRA is disabled. */
    Cycles serviceRestartCycles = 20000000;
    /**
     * Cost of full service rejuvenation (top of the escalation
     * ladder): re-exec the service program with fresh OS state.
     */
    Cycles rejuvenationCycles = 20000000;

    // ------------------------------------------------------ simulation
    std::uint64_t rngSeed = 1;

    /** Derived: core clocks per memory-bus clock. */
    std::uint32_t busRatio() const { return coreClockMHz / busClockMHz; }

    /** Abort with fatal() if any field combination is invalid. */
    void validate() const;

    /** Print a Table 4-style parameter summary. */
    void print(std::ostream &os) const;
};

/**
 * The page and backup-line sizes as shifts and masks, derived once
 * from the sizes SystemConfig::validate() checks are powers of 2, so
 * the execute path splits an address with no runtime divide.
 */
struct PageGeometry
{
    explicit PageGeometry(const SystemConfig &cfg);

    std::uint32_t pageShift;
    std::uint32_t lineShift;  //!< log2 of backupLineBytes
    Addr pageMask;            //!< pageBytes - 1

    Vpn vpnOf(Addr vaddr) const { return vaddr >> pageShift; }

    std::uint32_t
    pageOffset(Addr vaddr) const
    {
        return static_cast<std::uint32_t>(vaddr & pageMask);
    }

    /** The backup line holding byte @p page_off of a page. */
    std::uint32_t
    lineOf(std::uint32_t page_off) const
    {
        return page_off >> lineShift;
    }

    std::uint32_t
    linesPerPage() const
    {
        return std::uint32_t{1} << (pageShift - lineShift);
    }
};

} // namespace indra

#endif // INDRA_SIM_CONFIG_HH
