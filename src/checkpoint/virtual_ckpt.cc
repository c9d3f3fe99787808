#include "checkpoint/virtual_ckpt.hh"

namespace indra::ckpt
{

namespace
{

bool
isSoftware(const SystemConfig &cfg)
{
    return cfg.checkpointScheme == CheckpointScheme::SoftwareCheckpoint;
}

} // anonymous namespace

VirtualCheckpoint::VirtualCheckpoint(const SystemConfig &cfg,
                                     os::ProcessContext &context,
                                     os::AddressSpace &space,
                                     mem::PhysicalMemory &phys,
                                     mem::MemHierarchy &mem,
                                     stats::StatGroup &parent)
    : CheckpointPolicy(cfg, context, space, phys, mem, parent,
                       isSoftware(cfg) ? "ckpt_software" : "ckpt_virtual")
{
    if (isSoftware(cfg)) {
        statProtFaults.emplace(statGroup, "prot_faults",
                               "write-protect faults taken");
    }
}

VirtualCheckpoint::~VirtualCheckpoint()
{
    for (auto &[vpn, b] : backups) {
        if (b.backupPfn != invalidPfn)
            phys.freeFrame(b.backupPfn);
    }
}

Cycles
VirtualCheckpoint::onStore(Tick tick, Pid pid, Addr vaddr,
                           std::uint32_t bytes)
{
    (void)bytes;
    if (pid != context.pid())
        return 0;
    Vpn vpn = geom.vpnOf(vaddr);
    const os::PageInfo *page = space.findPage(vpn);
    if (!page)
        return 0;

    std::uint64_t gts = context.gts();
    PageBackup &b = backups[vpn];
    if (b.lts == gts && savedThisEpoch.count(vpn))
        return 0;  // already copied on demand this epoch

    // Software checkpointing enters the checkpoint library through a
    // protection fault; the copy starts once the handler runs.
    Cycles cost = 0;
    if (statProtFaults) {
        ++*statProtFaults;
        cost = config.writeProtectFaultCycles;
    }
    if (b.backupPfn == invalidPfn)
        b.backupPfn = phys.allocFrame();
    copyPage(b.backupPfn, page->pfn);
    cost += chargePageCopy(tick + cost, page->pfn, b.backupPfn);
    b.lts = gts;
    savedThisEpoch.insert(vpn);
    ++statPagesBackedUp;
    statLinesBackedUp += static_cast<double>(linesPerPage());
    statBackupCycles += static_cast<double>(cost);
    return cost;
}

Cycles
VirtualCheckpoint::onRequestBegin(Tick tick)
{
    (void)tick;
    savedThisEpoch.clear();
    return 0;
}

void
VirtualCheckpoint::invalidate()
{
    savedThisEpoch.clear();
    for (auto &[vpn, b] : backups)
        b.lts = 0;
}

Cycles
VirtualCheckpoint::onFailure(Tick tick)
{
    (void)tick;
    ++statRollbacks;
    Cycles cost = 0;
    for (Vpn vpn : savedThisEpoch) {
        auto it = backups.find(vpn);
        if (it == backups.end() || it->second.backupPfn == invalidPfn)
            continue;
        if (!space.isMapped(vpn))
            continue;
        // Fast recovery: point the translation at the backup copy.
        space.remapPage(vpn, it->second.backupPfn);
        it->second.backupPfn = invalidPfn;  // consumed by the remap
        cost += config.pageRemapCycles;
    }
    savedThisEpoch.clear();
    // Stale lines for the remapped pages may linger in the virtually
    // tagged caches; hardware flushes them as part of the recovery.
    memsys.flushCaches();
    memsys.flushTlbs();
    statRecoveryCycles += static_cast<double>(cost);
    return cost;
}

} // namespace indra::ckpt
