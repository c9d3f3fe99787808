/**
 * @file
 * Copy-whole-page-on-first-write checkpointing: the one engine behind
 * two Table 3 rows that differ only in who pays for the copy.
 *
 *  - Hardware-supported virtual checkpointing (Bowen & Pradhan [8];
 *    CheckpointScheme::VirtualCheckpoint): on the first write to a
 *    page in an epoch the *entire* page is copied to a backup frame on
 *    demand (slow backup — this is the page-to-page copying that
 *    dominates Figure 14).
 *  - Software (libckpt-style) incremental checkpointing (Plank et al.
 *    [23]; CheckpointScheme::SoftwareCheckpoint): pages are
 *    write-protected at each checkpoint, so the first store to a page
 *    takes a protection fault into the checkpoint library before the
 *    same whole-page copy.
 *
 * Recovery in both just redirects the page translation to the backup
 * copy (fast).
 */

#ifndef INDRA_CKPT_VIRTUAL_CKPT_HH
#define INDRA_CKPT_VIRTUAL_CKPT_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "checkpoint/policy.hh"

namespace indra::ckpt
{

/**
 * Whole-page copy-on-demand engine. It models software checkpointing
 * when @p cfg selects CheckpointScheme::SoftwareCheckpoint and
 * hardware virtual checkpointing otherwise.
 */
class VirtualCheckpoint : public CheckpointPolicy
{
  public:
    VirtualCheckpoint(const SystemConfig &cfg,
                      os::ProcessContext &context,
                      os::AddressSpace &space, mem::PhysicalMemory &phys,
                      mem::MemHierarchy &mem, stats::StatGroup &parent);

    ~VirtualCheckpoint() override;

    const char *
    name() const override
    {
        return statProtFaults ? "software-checkpoint"
                              : "virtual-checkpoint";
    }

    Cycles onStore(Tick tick, Pid pid, Addr vaddr,
                   std::uint32_t bytes) override;
    Cycles onLoad(Tick, Pid, Addr, std::uint32_t) override { return 0; }
    Cycles onRequestBegin(Tick tick) override;
    Cycles onFailure(Tick tick) override;
    void invalidate() override;

    /** Pages holding a backup copy for the current epoch. */
    std::uint64_t pagesSavedThisEpoch() const
    {
        return savedThisEpoch.size();
    }

  private:
    struct PageBackup
    {
        Pfn backupPfn = invalidPfn;
        std::uint64_t lts = 0;
    };

    std::unordered_map<Vpn, PageBackup> backups;
    std::unordered_set<Vpn> savedThisEpoch;
    /** Write-protect faults taken; present only for software
     *  checkpointing, which is what pays them. */
    std::optional<stats::Scalar> statProtFaults;
};

} // namespace indra::ckpt

#endif // INDRA_CKPT_VIRTUAL_CKPT_HH
