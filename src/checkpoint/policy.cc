#include "checkpoint/policy.hh"

#include "checkpoint/delta_backup.hh"
#include "checkpoint/domain_ckpt.hh"
#include "checkpoint/update_log.hh"
#include "checkpoint/virtual_ckpt.hh"
#include "sim/logging.hh"

namespace indra::ckpt
{

CheckpointPolicy::CheckpointPolicy(const SystemConfig &cfg,
                                   os::ProcessContext &context_ref,
                                   os::AddressSpace &space_ref,
                                   mem::PhysicalMemory &phys_ref,
                                   mem::MemHierarchy &mem_ref,
                                   stats::StatGroup &parent,
                                   const char *name)
    : config(cfg), geom(cfg), context(context_ref), space(space_ref),
      phys(phys_ref), memsys(mem_ref),
      statGroup(parent, name),
      statLinesBackedUp(statGroup, "lines_backed_up",
                        "backup-granularity lines copied to backup"),
      statPagesBackedUp(statGroup, "pages_backed_up",
                        "whole pages copied to backup"),
      statBackupCycles(statGroup, "backup_cycles",
                       "cycles charged for backup work"),
      statRecoveryCycles(statGroup, "recovery_cycles",
                         "cycles charged for recovery work"),
      statRollbacks(statGroup, "rollbacks", "failures rolled back"),
      statCorruptionDetected(statGroup, "corruption_detected",
                             "backup-state corruption caught by checksum")
{
}

std::uint64_t
CheckpointPolicy::corruptionDetected() const
{
    return static_cast<std::uint64_t>(statCorruptionDetected.value());
}

std::uint64_t
CheckpointPolicy::linesBackedUp() const
{
    return static_cast<std::uint64_t>(statLinesBackedUp.value());
}

std::uint64_t
CheckpointPolicy::backupCycles() const
{
    return static_cast<std::uint64_t>(statBackupCycles.value());
}

std::uint64_t
CheckpointPolicy::recoveryCycles() const
{
    return static_cast<std::uint64_t>(statRecoveryCycles.value());
}

Cycles
CheckpointPolicy::chargePageCopy(Tick tick, Pfn src_pfn, Pfn dst_pfn)
{
    // Whole-page copies stream uncached over the bus (DMA-style),
    // plus a fixed per-page setup (fault handling / descriptor
    // programming). This is what makes page-granularity checkpointing
    // "slow" in Table 3 and dominates Figure 14.
    Cycles total = config.pageCopySetupCycles;
    std::uint32_t lpp = linesPerPage();
    for (std::uint32_t l = 0; l < lpp; ++l) {
        std::uint32_t off = l * config.backupLineBytes;
        total += memsys.uncachedLineTransfer(
            tick + total, memsys.backupAddr(src_pfn, off));
        total += memsys.uncachedLineTransfer(
            tick + total, memsys.backupAddr(dst_pfn, off));
    }
    return total;
}

NullPolicy::NullPolicy(const SystemConfig &cfg,
                       os::ProcessContext &context,
                       os::AddressSpace &space,
                       mem::PhysicalMemory &phys, mem::MemHierarchy &mem,
                       stats::StatGroup &parent)
    : CheckpointPolicy(cfg, context, space, phys, mem, parent, "ckpt_none")
{
}

std::unique_ptr<CheckpointPolicy>
makePolicy(const SystemConfig &cfg, os::ProcessContext &context,
           os::AddressSpace &space, mem::PhysicalMemory &phys,
           mem::MemHierarchy &mem, stats::StatGroup &parent)
{
    switch (cfg.checkpointScheme) {
      case CheckpointScheme::None:
        return std::make_unique<NullPolicy>(cfg, context, space, phys,
                                            mem, parent);
      case CheckpointScheme::DeltaBackup:
        return std::make_unique<DeltaBackup>(cfg, context, space, phys,
                                             mem, parent);
      case CheckpointScheme::VirtualCheckpoint:
      case CheckpointScheme::SoftwareCheckpoint:
        return std::make_unique<VirtualCheckpoint>(cfg, context, space,
                                                   phys, mem, parent);
      case CheckpointScheme::MemoryUpdateLog:
        return std::make_unique<MemoryUpdateLog>(cfg, context, space,
                                                 phys, mem, parent);
      case CheckpointScheme::DomainRewind:
        return std::make_unique<DomainRewindEngine>(cfg, context, space,
                                                    phys, mem, parent);
    }
    panic("unknown checkpoint scheme");
}

} // namespace indra::ckpt
