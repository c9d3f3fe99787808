/**
 * @file
 * Macro (application-level) checkpointing for the hybrid recovery
 * scheme of Figure 8. Every N processed requests the server OS takes
 * a full application checkpoint [23]; if the swift per-request micro
 * recovery cannot revive the service (a "dormant" attack whose damage
 * surfaces requests later), the system falls back to this checkpoint.
 */

#ifndef INDRA_CKPT_MACRO_CKPT_HH
#define INDRA_CKPT_MACRO_CKPT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "faults/fault_injector.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/trace_log.hh"
#include "os/address_space.hh"
#include "os/process.hh"
#include "os/resources.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::ckpt
{

/** Outcome of a macro restore attempt. */
struct MacroRestoreResult
{
    /**
     * True when the image verified and was written back. False means
     * the checkpoint was missing, truncated, or failed its checksums;
     * no process state was modified.
     */
    bool ok = false;
    Cycles cycles = 0;  //!< restore (or verification) cost
};

/**
 * Full application checkpoint: memory image + process context +
 * resource allocation state.
 *
 * Every captured page is sealed with an FNV checksum and the page
 * count is recorded; restore() verifies the whole image *before*
 * touching any process state, so a corrupted or truncated checkpoint
 * is reported to the caller instead of silently restoring wrong state.
 */
class MacroCheckpoint
{
  public:
    MacroCheckpoint(const SystemConfig &cfg, mem::PhysicalMemory &phys,
                    mem::MemHierarchy &mem, stats::StatGroup &parent);

    /**
     * Capture the full state of @p proc (context @p ctx, resources
     * @p res, space @p space).
     * @return the cycles the software checkpoint costs
     */
    Cycles capture(Tick tick, os::ProcessContext &ctx,
                   os::AddressSpace &space, os::SystemResources &res);

    /**
     * Verify and restore the last captured checkpoint into the
     * process. With no intact checkpoint, returns ok == false and
     * leaves the process untouched.
     */
    MacroRestoreResult restore(Tick tick, os::ProcessContext &ctx,
                               os::AddressSpace &space,
                               os::SystemResources &res);

    /**
     * Drop the captured image (e.g. after it failed verification or
     * a rejuvenation made it obsolete). The page buffers are kept
     * for the next capture; the checksum memo survives too.
     */
    void discard();

    /** Attach a fault injector (nullable) to corrupt captures. */
    void setFaultInjector(faults::FaultInjector *inj) { injector = inj; }

    /**
     * Record that frame @p pfn (mapped at @p vpn) was just rewritten
     * with bytes whose checksum @p sum the caller already knows —
     * e.g. a rejuvenation writing the load-time image back. The next
     * capture of an untouched page then reuses @p sum instead of
     * re-hashing the frame.
     */
    void
    resealPage(Vpn vpn, Pfn pfn, std::uint32_t sum)
    {
        sealCache[vpn] = {pfn, phys.frameVersion(pfn), sum};
    }

    /**
     * Attach a structured event log (nullable); @p source identifies
     * the checkpointed service's core. Captures, restore attempts
     * (successful or refused), and image-verification failures are
     * traced.
     */
    void
    setTraceLog(obs::TraceLog *log, std::uint32_t source)
    {
        traceLog = log;
        traceSource = source;
    }

    bool hasCheckpoint() const { return captured; }
    std::uint64_t captures() const;
    std::uint64_t restores() const;

    /** Restore attempts refused (missing/truncated/corrupt image). */
    std::uint64_t restoreFailures() const;

    /** Image corruption events caught by checksum verification. */
    std::uint64_t corruptionDetected() const;

    /**
     * True when image page @p vpn is known to equal the current bytes
     * of frame @p pfn, so neither capture nor restore copies it.
     */
    bool holdsFrame(Vpn vpn, Pfn pfn) const;

  private:
    /** True when the page count and every page checksum verify. */
    bool verifyImage(Tick tick);

    const SystemConfig &config;
    mem::PhysicalMemory &phys;
    mem::MemHierarchy &memsys;
    faults::FaultInjector *injector = nullptr;
    obs::TraceLog *traceLog = nullptr;
    std::uint32_t traceSource = 0;

    /** One page of the captured image. */
    struct ImagePage
    {
        std::vector<std::uint8_t> bytes;
        std::uint32_t sealedSum = 0;  //!< checksum sealed at capture
        /**
         * FNV checksum of the page's *current* bytes. Image pages are
         * only written at capture time (snapshot, then any injected
         * corruption, which refreshes this sum), so verifyImage can
         * compare it against sealedSum without re-hashing megabytes
         * of page data on every restore attempt.
         */
        std::uint32_t liveSum = 0;
        /**
         * The frame copy this page's bytes equal: frame heldPfn at
         * write version heldVersion, or none (invalidPfn). Set by a
         * capture's snapshot and a restore's write-back; cleared by
         * an injected corruption. While it holds, capture skips the
         * snapshot and restore skips the write-back.
         */
        Pfn heldPfn = invalidPfn;
        std::uint64_t heldVersion = 0;
        std::uint64_t epoch = 0;  //!< last capture that saw it mapped

        bool
        holds(Pfn pfn, std::uint64_t version) const
        {
            return heldPfn == pfn && heldVersion == version;
        }
    };

    bool captured = false;
    std::uint64_t captureEpoch = 0;
    std::unordered_map<Vpn, ImagePage> image;
    /**
     * Page buffers of a discarded image, reused by the next capture's
     * pages instead of allocating fresh ones (rejuvenation discards
     * and recaptures the whole image back to back).
     */
    std::vector<std::vector<std::uint8_t>> spareBuffers;
    /** Memoized seal of one page: frame identity plus its checksum. */
    struct PageSeal
    {
        Pfn pfn = invalidPfn;
        std::uint64_t version = 0;  //!< PhysicalMemory::frameVersion
        std::uint32_t sum = 0;
    };
    /**
     * Checksum memo, keyed by vpn and validated against the page's
     * current (pfn, frame version) pair. A page untouched since the
     * previous capture re-uses its sealed checksum instead of
     * re-hashing the whole frame; any write (or frame reuse) bumps the
     * version and forces a fresh hash, so the memo is exact.
     */
    std::unordered_map<Vpn, PageSeal> sealCache;
    std::uint64_t expectedPages = 0;
    os::ProcessContext::Snapshot contextSnap;
    os::ResourceSnapshot resourceSnap;

    stats::StatGroup statGroup;
    stats::Scalar statCaptures;
    stats::Scalar statRestores;
    stats::Scalar statCaptureCycles;
    stats::Scalar statRestoreCycles;
    stats::Scalar statRestoreFailures;
    stats::Scalar statCorruptionDetected;
};

} // namespace indra::ckpt

#endif // INDRA_CKPT_MACRO_CKPT_HH
