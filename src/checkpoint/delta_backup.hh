/**
 * @file
 * INDRA's delta state backup and recovery-on-demand engine
 * (Section 3.3.1, Figures 3-7 of the paper).
 *
 * Each virtual page requiring backup gets a physical *backup page*
 * holding the original values of the lines first modified since the
 * current global checkpoint (GTS). A backup page record carries the
 * page's local timestamp (LTS), a dirty-block bitvector, and a
 * rollback bitvector. On failure, rollback bitvectors are armed by
 * OR-ing in the dirty bits — no memory is copied; lines are recovered
 * lazily on their next read (or superseded by their next write), so
 * both backup and rollback costs are amortized into execution.
 */

#ifndef INDRA_CKPT_DELTA_BACKUP_HH
#define INDRA_CKPT_DELTA_BACKUP_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checkpoint/bitvec.hh"
#include "checkpoint/policy.hh"
#include "sim/memo.hh"

namespace indra::ckpt
{

/** The backup page record of Figure 3. */
struct BackupPageRecord
{
    Pfn backupPfn = invalidPfn;   //!< physical backup page
    std::uint64_t lts = 0;        //!< local checkpoint timestamp
    LineBitVector dirtyBv;        //!< lines backed up this epoch
    LineBitVector rollbackBv;     //!< lines pending lazy rollback
    bool rollbackVld = false;     //!< fast "any rollback pending" flag
    /**
     * Per-line seal (faults::checksum64) of the backup copy, recorded
     * when the line entered the backup page; consulted for lines with
     * a dirty or rollback bit set before their backup copy is trusted.
     */
    std::vector<std::uint64_t> lineSums;
    /**
     * Seal of the backup line's *current* bytes, updated on
     * every write to the backup copy (the seal itself and any injected
     * flip). Backup frames are written only through sealBackupLine, so
     * this cache is exact and integrity checks reduce to comparing it
     * against lineSums — no memory is re-read or re-hashed.
     */
    std::vector<std::uint64_t> liveSums;
    /** The record is on DeltaBackup's list of armed records. */
    bool armedListed = false;
    /**
     * DeltaBackup's touch epoch when the page last entered the touched
     * set; while it is current the page is already in the set.
     */
    std::uint64_t touchStamp = 0;
};

/**
 * The delta-page engine.
 */
class DeltaBackup : public CheckpointPolicy
{
  public:
    DeltaBackup(const SystemConfig &cfg, os::ProcessContext &context,
                os::AddressSpace &space, mem::PhysicalMemory &phys,
                mem::MemHierarchy &mem, stats::StatGroup &parent);

    ~DeltaBackup() override;

    const char *name() const override { return "delta-backup"; }

    // Figure 4: the write path.
    Cycles onStore(Tick tick, Pid pid, Addr vaddr,
                   std::uint32_t bytes) override;

    // Figure 5: the read path (rollback on demand).
    Cycles onLoad(Tick tick, Pid pid, Addr vaddr,
                  std::uint32_t bytes) override;

    // Figure 6: success path — bookkeeping for per-request stats only
    // (epoch change is carried by the GTS the kernel already bumped).
    Cycles onRequestBegin(Tick tick) override;

    // Figure 6: failure path — arm rollback bitvectors, no copying.
    Cycles onFailure(Tick tick) override;

    /** Apply every pending lazy rollback now (tests / ablation). */
    Cycles drainRollback(Tick tick) override;

    /** Drop all dirty/rollback state (macro restore supersedes it). */
    void invalidate() override;

    /** Checksum-verify every backup line a micro recovery would use. */
    bool verifyIntegrity(Tick tick) override;

    /** The record for @p vpn, or nullptr if none exists yet. */
    const BackupPageRecord *record(Vpn vpn) const;

    /** All backup records, for invariant checkers (read-only). */
    const std::unordered_map<Vpn, BackupPageRecord> &
    recordMap() const
    {
        return records;
    }

    /** Vpns whose record's LTS equals the current GTS (read-only). */
    const std::unordered_set<Vpn> &
    touchedSet() const
    {
        return touchedThisEpoch;
    }

    /** Number of backup pages currently allocated. */
    std::uint64_t backupPagesAllocated() const;

    /** Pages written during the current epoch. */
    std::uint64_t pagesTouchedThisEpoch() const;

    /** Lines backed up during the current epoch. */
    std::uint64_t linesBackedUpThisEpoch() const;

    /**
     * Per-request ratio of backed-up lines to all lines of the pages
     * touched (the Figure 15 metric), sampled at each request end.
     */
    const stats::Distribution &dirtyLineRatio() const
    {
        return statDirtyLineRatio;
    }

    /** Pages touched per request distribution (~50 in the paper). */
    const stats::Distribution &pagesPerRequest() const
    {
        return statPagesPerRequest;
    }

  protected:
    /** Subclass constructor: same engine, its own stat subtree. */
    DeltaBackup(const SystemConfig &cfg, os::ProcessContext &context,
                os::AddressSpace &space, mem::PhysicalMemory &phys,
                mem::MemHierarchy &mem, stats::StatGroup &parent,
                const char *group_name);

  private:
    /**
     * records.find behind a direct-mapped memo: stores and loads
     * cluster on a few pages, so most lookups repeat a recent vpn.
     * Node pointers of std::unordered_map are stable across inserts
     * and rehashes, and records are never erased, so the memo cannot
     * dangle.
     */
    BackupPageRecord *
    findRecord(Vpn vpn)
    {
        if (BackupPageRecord *hit = memo.find(vpn))
            return hit;
        auto it = records.find(vpn);
        if (it == records.end())
            return nullptr;
        memo.fill(vpn, &it->second);
        return &it->second;
    }

    /**
     * Empty the touched set and open a new touch epoch, so every
     * record's touchStamp goes stale.
     */
    void
    newTouchEpoch()
    {
        touchedThisEpoch.clear();
        ++touchEpoch;
    }

    /** Get-or-create the record for @p vpn. */
    BackupPageRecord &recordFor(Vpn vpn, Tick tick, Cycles &cost);

    /** Checksum of one backup line's current bytes. */
    std::uint64_t lineChecksum(Pfn pfn, std::uint32_t off) const;

    /**
     * Record the checksum of a line just copied into the backup page,
     * then give the fault injector a shot at flipping a bit in it.
     */
    void sealBackupLine(BackupPageRecord &rec, std::uint32_t line);

    /** True when the backup copy of @p line still matches its seal. */
    bool lineIntact(const BackupPageRecord &rec,
                    std::uint32_t line) const;

    /**
     * One lazy-rollback step (Figure 5) for a line of @p rec pending
     * rollback: copy its backup over the active line at @p pfn and
     * charge the backup read, then the active-line write to
     * @p active_addr, from @p tick. A corrupt backup copy is never
     * applied: it is counted and its pending rollback dropped, so the
     * damage can never land; the escalation ladder has already (or
     * will) put the page right via macro rollback. Returns the cycles
     * charged.
     */
    Cycles rollbackLine(BackupPageRecord &rec, Pfn pfn,
                        std::uint32_t line, Tick tick, Addr active_addr);

    /**
     * Backup lines of @p rec that fail lineIntact() among those a
     * micro recovery would consume: the pending rollback lines when
     * @p pending, plus the dirty lines when @p armed.
     */
    std::uint64_t corruptLines(const BackupPageRecord &rec, bool pending,
                               bool armed) const;

    std::unordered_map<Vpn, BackupPageRecord> records;
    PointerMemo<BackupPageRecord> memo;
    mutable std::vector<std::uint8_t> lineBuf;
    /** vpns whose record's LTS equals the current GTS. */
    std::unordered_set<Vpn> touchedThisEpoch;
    /**
     * Bumped each time touchedThisEpoch is cleared; starts above every
     * new record's touchStamp.
     */
    std::uint64_t touchEpoch = 1;
    /**
     * Records onFailure armed, each once, a superset of those with a
     * rollback still pending; verifyIntegrity drops the drained ones.
     * Record addresses are stable (see findRecord).
     */
    std::vector<BackupPageRecord *> armedRecords;
    std::uint64_t epochLinesBackedUp = 0;

    stats::Scalar statRecordsAllocated;
    stats::Scalar statLazyLineRecoveries;
    stats::Scalar statSupersededLines;
    stats::Distribution statDirtyLineRatio;
    stats::Distribution statPagesPerRequest;
};

} // namespace indra::ckpt

#endif // INDRA_CKPT_DELTA_BACKUP_HH
