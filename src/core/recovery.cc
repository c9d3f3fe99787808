#include "core/recovery.hh"

#include "checkpoint/domain_ckpt.hh"
#include "sim/logging.hh"

namespace indra::core
{

RecoveryManager::RecoveryManager(const SystemConfig &cfg,
                                 ckpt::CheckpointPolicy &policy_ref,
                                 ckpt::MacroCheckpoint &macro_ref,
                                 os::Kernel &kernel_ref,
                                 mem::PhysicalMemory &phys_ref,
                                 Pid pid_in, cpu::Core &core_ref,
                                 mon::Monitor *monitor_ptr,
                                 stats::StatGroup &parent)
    : config(cfg), policy(policy_ref), macro(macro_ref),
      kernel(kernel_ref), phys(phys_ref), pid(pid_in), core(core_ref),
      monitor(monitor_ptr),
      statGroup(parent, "recovery"),
      statMicroRecoveries(statGroup, "micro", "micro recoveries"),
      statDomainRewinds(statGroup, "domain_rewinds",
                        "confined domain rewinds"),
      statCrossEscalations(statGroup, "cross_escalations",
                           "rewinds refused for cross-domain taint"),
      statMacroRecoveries(statGroup, "macro", "macro recoveries"),
      statRejuvenations(statGroup, "rejuvenations",
                        "full service rejuvenations"),
      statIntegrityEscalations(statGroup, "integrity_escalations",
                               "micro recoveries refused: backup state "
                               "failed checksum verification"),
      statMacroRestoreFailures(statGroup, "macro_restore_failures",
                               "macro restores refused: missing or "
                               "corrupt image"),
      statMissingSnapshotRecoveries(statGroup, "missing_snapshot",
                                    "recoveries without a request "
                                    "snapshot"),
      statReleaseFailures(statGroup, "release_failures",
                          "resource releases that failed during "
                          "recovery"),
      statFilesClosed(statGroup, "files_closed",
                      "files closed during resource recovery"),
      statChildrenKilled(statGroup, "children_killed",
                         "child processes killed during recovery"),
      statPagesReclaimed(statGroup, "pages_reclaimed",
                         "heap pages reclaimed during recovery")
{
    // The load-time image is the rejuvenation target: capture it now,
    // before the service touches its first request.
    os::Process &proc = kernel.process(pid);
    initialContext = proc.context->snapshot();
    initialResources = proc.resources->snapshot();
    for (Vpn vpn : proc.space->mappedPages()) {
        Pfn pfn = proc.space->pageInfo(vpn).pfn;
        LoadPage &page = loadImage[vpn];
        if (phys.isZeroFrame(pfn)) {
            page.sum = macro.zeroPageSum();
        } else {
            page.bytes = phys.snapshotFrame(pfn);
            page.sum =
                faults::checksum64(page.bytes.data(), page.bytes.size());
        }
        page.heldPfn = pfn;
        page.heldVersion = phys.frameVersion(pfn);
        // The frame holds exactly these bytes: seal it, so the boot
        // capture that follows does not hash the page again.
        macro.resealPage(vpn, pfn, page.sum);
    }
}

void
RecoveryManager::setTraceLog(obs::TraceLog *log, std::uint32_t source)
{
    traceLog = log;
    traceSource = source;
}

void
RecoveryManager::noteRequestBegin(Tick tick)
{
    (void)tick;
    os::Process &proc = kernel.process(pid);
    contextSnap = proc.context->snapshot();
    resourceSnap = proc.resources->snapshot();
    haveSnap = true;
}

void
RecoveryManager::noteSuccess()
{
    consecutive = 0;
    macroStreak = 0;
}

void
RecoveryManager::accountRestore(const os::RestoreActions &actions)
{
    statFilesClosed += actions.filesClosed;
    statChildrenKilled += actions.childrenKilled;
    statPagesReclaimed += static_cast<double>(actions.pagesReclaimed);
    statReleaseFailures += actions.releaseFailures;
}

RecoveryLevel
RecoveryManager::recover(Tick tick)
{
    os::Process &proc = kernel.process(pid);
    ++consecutive;

    // The resurrector interrupts and stalls the resurrectee, flushing
    // its pipeline (Section 2.3.3).
    core.stallUntil(tick);
    core.stall(config.recoveryInterruptCycles);
    core.flushPipeline();

    bool threshold_hit = consecutive > config.consecutiveFailureThreshold;
    bool macro_available = macro.hasCheckpoint() &&
                           macroStreak < config.macroRetryLimit;
    bool micro_trusted = true;

    bool want_macro = threshold_hit;
    if (!haveSnap) {
        // Detection hit before the first request snapshot existed (or
        // after a rejuvenation discarded it): micro recovery has
        // nothing to restore to.
        ++statMissingSnapshotRecoveries;
        want_macro = true;
    }

    if (domainEngine && domainEngine->attributionPending() &&
        domainEngine->attributedCross()) {
        // Cross-domain taint: the exploit class can reach past the
        // compartment boundary, so a confined rewind cannot bound the
        // blast radius. Drop the attribution and escalate.
        ++statCrossEscalations;
        domainEngine->clearAttribution();
        want_macro = true;
    }

    // Whenever micro recovery is still a possible outcome, its backup
    // state must checksum-verify; corrupt backups escalate instead of
    // silently restoring wrong bytes.
    if (haveSnap && (!want_macro || !macro_available)) {
        if (!policy.verifyIntegrity(core.curTick())) {
            ++statIntegrityEscalations;
            micro_trusted = false;
            want_macro = true;
        }
    }

    if (want_macro) {
        if (macro_available) {
            // Hybrid fallback (Figure 8): roll back to the
            // application checkpoint. The image is verified before a
            // single byte of process state changes.
            ckpt::MacroRestoreResult res =
                macro.restore(core.curTick(), *proc.context,
                              *proc.space, *proc.resources);
            if (res.ok) {
                ++statMacroRecoveries;
                core.stall(res.cycles);
                // The restored image supersedes every pending micro
                // rollback: discard the engine's backup state instead
                // of applying it.
                policy.invalidate();
                if (monitor)
                    monitor->onRecovery(pid);
                consecutive = 0;
                ++macroStreak;
                return RecoveryLevel::Macro;
            }
            // Missing, truncated, or corrupt image: nothing was
            // restored, and retrying the same image cannot help.
            ++statMacroRestoreFailures;
            return rejuvenate(tick);
        }
        if (!haveSnap || !micro_trusted || macroStreak > 0) {
            // Micro cannot run (or cannot be trusted) and the macro
            // level is unavailable or exhausted: only a full
            // rejuvenation revives the service.
            return rejuvenate(tick);
        }
        // Threshold exceeded but no application checkpoint was ever
        // taken: keep doing micro recovery (the pre-hybrid behavior).
    }

    if (domainEngine && domainEngine->attributionPending()) {
        // --- confined domain rewind ---
        // Same per-request exactness as the micro rung, then the
        // attributed compartment is discarded back to its anchors.
        // The rollback is drained *eagerly* first: a lazily pending
        // line applied after the rewind would clobber anchor content.
        ++statDomainRewinds;
        core.stall(policy.onFailure(core.curTick()));
        core.stall(policy.drainRollback(core.curTick()));
        core.stall(domainEngine->rewindAttributed(core.curTick()));
        proc.context->restore(contextSnap);
        accountRestore(
            proc.resources->restoreTo(resourceSnap, *proc.space));
        if (monitor)
            monitor->onRecovery(pid);
        return RecoveryLevel::Domain;
    }

    // --- micro recovery (Figure 6, failure path) ---
    ++statMicroRecoveries;
    Cycles cost = policy.onFailure(core.curTick());
    core.stall(cost);
    if (config.eagerRollback) {
        // Ablation: pay the whole rollback now instead of amortizing
        // it into subsequent execution.
        core.stall(policy.drainRollback(core.curTick()));
    }

    // Restore the process context recorded when the GTS was last
    // incremented (PC, registers, GTS).
    proc.context->restore(contextSnap);

    // System resource recovery (Section 3.3.3).
    accountRestore(proc.resources->restoreTo(resourceSnap, *proc.space));

    if (monitor)
        monitor->onRecovery(pid);
    INDRA_TRACE(traceLog, core.curTick(), obs::EventKind::MicroRecovery,
                traceSource, consecutive);
    return RecoveryLevel::Micro;
}

RecoveryLevel
RecoveryManager::rejuvenate(Tick tick)
{
    (void)tick;
    ++statRejuvenations;
    os::Process &proc = kernel.process(pid);
    core.stall(config.rejuvenationCycles);

    // Rebuild the service from its load-time state: resources first
    // (so post-load heap pages are reclaimed), then the memory image,
    // then the register context.
    accountRestore(
        proc.resources->restoreTo(initialResources, *proc.space));
    for (auto &[vpn, page] : loadImage) {
        const os::PageInfo *info = proc.space->findPage(vpn);
        if (!info)
            continue;
        const Pfn pfn = info->pfn;
        // A frame still at the version the page was copied from (or
        // last written back to) already holds the load-time bytes.
        if (page.heldPfn != pfn ||
            page.heldVersion != phys.frameVersion(pfn)) {
            if (page.bytes.empty())
                phys.zeroFrame(pfn);
            else
                phys.write(pfn, 0, page.bytes.data(),
                           static_cast<std::uint32_t>(page.bytes.size()));
            page.heldPfn = pfn;
            page.heldVersion = phys.frameVersion(pfn);
        }
        // The frame now holds the load-time bytes whose checksum was
        // computed at construction: reseal so the checkpoint taken
        // right below skips re-hashing every page.
        macro.resealPage(vpn, pfn, page.sum);
    }
    proc.context->restore(initialContext);

    // Every layer of backup state below the reborn service is stale.
    policy.invalidate();
    macro.discard();
    if (monitor)
        monitor->onRecovery(pid);
    consecutive = 0;
    macroStreak = 0;
    haveSnap = false;

    INDRA_TRACE(traceLog, core.curTick(), obs::EventKind::Rejuvenation,
                traceSource, config.rejuvenationCycles);

    // Give the ladder a macro level again: image the fresh service.
    takeMacroCheckpoint(core.curTick());
    return RecoveryLevel::Rejuvenation;
}

Cycles
RecoveryManager::takeMacroCheckpoint(Tick tick)
{
    os::Process &proc = kernel.process(pid);
    // Make memory byte-exact before imaging it.
    policy.drainRollback(tick);
    Cycles cost = macro.capture(tick, *proc.context, *proc.space,
                                *proc.resources);
    core.stall(cost);
    return cost;
}

std::uint64_t
RecoveryManager::rejuvenations() const
{
    return static_cast<std::uint64_t>(statRejuvenations.value());
}

std::uint64_t
RecoveryManager::domainRewinds() const
{
    return static_cast<std::uint64_t>(statDomainRewinds.value());
}

std::uint64_t
RecoveryManager::crossEscalations() const
{
    return static_cast<std::uint64_t>(statCrossEscalations.value());
}

std::uint64_t
RecoveryManager::integrityEscalations() const
{
    return static_cast<std::uint64_t>(statIntegrityEscalations.value());
}

std::uint64_t
RecoveryManager::macroRestoreFailures() const
{
    return static_cast<std::uint64_t>(statMacroRestoreFailures.value());
}

std::uint64_t
RecoveryManager::missingSnapshotRecoveries() const
{
    return static_cast<std::uint64_t>(
        statMissingSnapshotRecoveries.value());
}

std::uint64_t
RecoveryManager::releaseFailures() const
{
    return static_cast<std::uint64_t>(statReleaseFailures.value());
}

std::size_t
RecoveryManager::bufferedPages() const
{
    std::size_t n = 0;
    for (const auto &[vpn, page] : loadImage)
        n += page.bytes.capacity() != 0;
    return n;
}

} // namespace indra::core
