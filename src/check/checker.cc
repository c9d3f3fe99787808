#include "check/checker.hh"

#include <algorithm>
#include <sstream>

#include "checkpoint/delta_backup.hh"
#include "checkpoint/domain_ckpt.hh"
#include "core/system.hh"
#include "os/address_space.hh"
#include "os/kernel.hh"

namespace indra::check
{

SystemChecker::SystemChecker(core::IndraSystem &sys) : sys(sys)
{
}

ServiceShadow &
SystemChecker::shadowFor(Pid pid)
{
    return shadows[pid];
}

std::uint64_t
SystemChecker::epochOf(Pid pid) const
{
    auto it = shadows.find(pid);
    return it == shadows.end() ? 0 : it->second.epoch;
}

void
SystemChecker::capture(RefMemory &into, Pid pid)
{
    const os::Process &proc = sys.kernel().process(pid);
    into.captureFrom(*proc.space, sys.physMem());
}

CheckContext
SystemChecker::contextFor(Pid pid)
{
    auto refs = sys.refsForPid(pid);
    const os::Process &proc = sys.kernel().process(pid);
    CheckContext ctx;
    if (refs) {
        ctx.delta = dynamic_cast<const ckpt::DeltaBackup *>(refs->policy);
        ctx.guard = refs->slot->guard.get();
    }
    ctx.watchdog = sys.watchdog();
    ctx.phys = &sys.physMem();
    ctx.space = proc.space.get();
    ctx.gts = proc.context->gts();
    return ctx;
}

std::uint64_t
SystemChecker::corruptionCount(Pid pid)
{
    auto refs = sys.refsForPid(pid);
    return refs ? refs->policy->corruptionDetected() +
                      refs->macro->corruptionDetected()
                : 0;
}

void
SystemChecker::report(Violation v)
{
    // Stamp the injector's site-log length so the violation can be
    // attributed to the nearest prior injection (site index
    // faultSitesSeen - 1) even after the campaign moves on.
    if (const faults::FaultInjector *inj = sys.faultInjector())
        v.faultSitesSeen = inj->sites().size();
    if (obs::TraceLog *log = sys.traceLog()) {
        log->emit(v.tick, obs::EventKind::OracleViolation,
                  static_cast<std::uint32_t>(v.pid),
                  static_cast<std::uint64_t>(v.id), v.epoch);
    }
    fired.push_back(std::move(v));
}

void
SystemChecker::onDeploy(Pid pid)
{
    ServiceShadow &shadow = shadowFor(pid);
    // deployService takes the first macro checkpoint before this hook
    // fires, so memory right now is both the rejuvenation target and
    // the first macro image.
    capture(shadow.deployImage, pid);
    capture(shadow.macroImage, pid);
    // The domain engine starts with no anchors; its first anchor per
    // page will capture the page as it stands right now.
    capture(shadow.domainAnchorImage, pid);
}

void
SystemChecker::onEpochBegin(Tick tick, Pid pid)
{
    (void)tick;
    ServiceShadow &shadow = shadowFor(pid);
    ++shadow.epoch;
    shadow.corruptionAtEpoch = corruptionCount(pid);
    capture(shadow.epochImage, pid);
}

void
SystemChecker::onMacroCapture(Tick tick, Pid pid)
{
    (void)tick;
    capture(shadowFor(pid).macroImage, pid);
}

void
SystemChecker::onVerdict(Tick tick, Pid pid, bool detected)
{
    (void)detected;
    ServiceShadow &shadow = shadowFor(pid);
    ++nChecks;
    std::vector<Violation> found;
    reg.evaluate(contextFor(pid), tick, pid, shadow.epoch, found);
    for (Violation &v : found)
        report(std::move(v));
}

void
SystemChecker::compareMemory(const RefMemory &golden, Tick tick,
                             Pid pid, RestoreLevel level)
{
    ++nCompares;
    const os::Process &proc = sys.kernel().process(pid);
    auto mismatch = golden.compareAgainst(*proc.space, sys.physMem());
    if (mismatch) {
        Violation v;
        v.id = InvariantId::MemoryRestoreExact;
        v.tick = tick;
        v.pid = pid;
        v.epoch = epochOf(pid);
        v.detail = std::string(restoreLevelName(level)) +
            " restore inexact: " + mismatch->describe();
        report(std::move(v));
    }
}

void
SystemChecker::compareDomainRewind(ServiceShadow &shadow, Tick tick,
                                   Pid pid)
{
    ++nCompares;
    auto refs = sys.refsForPid(pid);
    const auto *engine =
        refs ? dynamic_cast<const ckpt::DomainRewindEngine *>(refs->policy)
             : nullptr;
    if (!engine)
        return;
    const os::Process &proc = sys.kernel().process(pid);
    // Sorted: the engine rewinds anchors in map order.
    const std::vector<Vpn> &rewound = engine->lastRewoundPages();
    // The Domain rung drains the delta rollback before rewinding, so
    // every epoch-captured page is accounted for: rewound pages must
    // match the anchor-reset image, everything else must sit exactly
    // where the epoch began.
    for (const auto &[vpn, golden] : shadow.epochImage.pages()) {
        (void)golden;
        if (!proc.space->isMapped(vpn))
            continue;
        bool was_rewound =
            std::binary_search(rewound.begin(), rewound.end(), vpn);
        const RefMemory &image =
            was_rewound ? shadow.domainAnchorImage : shadow.epochImage;
        auto mismatch = image.comparePage(
            vpn,
            sys.physMem().snapshotFrame(proc.space->pageInfo(vpn).pfn));
        if (mismatch) {
            Violation v;
            v.id = InvariantId::DomainRewindConfined;
            v.tick = tick;
            v.pid = pid;
            v.epoch = shadow.epoch;
            v.detail = std::string(was_rewound
                ? "rewound page differs from its anchor image: "
                : "page outside the rewind moved from the epoch image: ")
                + mismatch->describe();
            report(std::move(v));
            return;
        }
    }
}

void
SystemChecker::onRecovered(Tick tick, Pid pid, RestoreLevel level)
{
    ServiceShadow &shadow = shadowFor(pid);

    // An epoch in which the engines *detected* backup corruption
    // never promised byte-exactness — they refuse corrupt lines and
    // the ladder escalates past them. Hold only clean recoveries to
    // the golden image.
    bool clean = corruptionCount(pid) == shadow.corruptionAtEpoch;
    if (clean) {
        switch (level) {
          case RestoreLevel::Micro:
            compareMemory(shadow.epochImage, tick, pid, level);
            break;
          case RestoreLevel::Domain:
            compareDomainRewind(shadow, tick, pid);
            break;
          case RestoreLevel::Macro:
            compareMemory(shadow.macroImage, tick, pid, level);
            break;
          case RestoreLevel::Rejuvenation:
            compareMemory(shadow.deployImage, tick, pid, level);
            break;
        }
    }

    if (level == RestoreLevel::Macro ||
        level == RestoreLevel::Rejuvenation) {
        // Both paths invalidate the checkpoint policy, which drops the
        // domain engine's page anchors: the next anchor per page will
        // capture memory as it stands after this restore, so the
        // rewind target image must move with it. Captured outside the
        // clean gate — even a restore from corrupted backup resets the
        // anchors to whatever memory now holds.
        capture(shadow.domainAnchorImage, pid);
    }

    if (level == RestoreLevel::Domain) {
        // A rewind attributed to the dormant-damaged domain restores
        // the plant's page from its pre-plant anchor, and the system
        // heals the damage before this hook fires — damage still
        // present means an infected page survived its own rewind.
        auto refs = sys.refsForPid(pid);
        if (refs && refs->app->hasDormantDamage()) {
            Violation v;
            v.id = InvariantId::DomainRewindClearsDormant;
            v.tick = tick;
            v.pid = pid;
            v.epoch = shadow.epoch;
            v.detail = "dormant damage survived its domain's rewind";
            report(std::move(v));
        }
    }

    if (level == RestoreLevel::Rejuvenation) {
        // The reborn service must carry no dormant damage: the heal
        // happens before this hook fires, so damage still present
        // means a re-infected state survived the rebirth.
        auto refs = sys.refsForPid(pid);
        if (refs && refs->app->hasDormantDamage()) {
            Violation v;
            v.id = InvariantId::RejuvenationClearsDormant;
            v.tick = tick;
            v.pid = pid;
            v.epoch = shadow.epoch;
            v.detail = "dormant damage survived rejuvenation";
            report(std::move(v));
        }
        // rejuvenate() ends by taking a fresh macro checkpoint of the
        // reborn service; resync the golden macro image with it.
        capture(shadow.macroImage, pid);
    }

    ++nChecks;
    std::vector<Violation> found;
    reg.evaluate(contextFor(pid), tick, pid, shadow.epoch, found);
    for (Violation &v : found)
        report(std::move(v));
}

// ------------------------------------------------------ PlantedBugSink

PlantedBugSink::PlantedBugSink(SystemChecker &inner,
                               core::IndraSystem &sys,
                               std::uint64_t plant_at_epoch)
    : inner(inner), sys(sys), plantAtEpoch(plant_at_epoch)
{
}

void
PlantedBugSink::onDeploy(Pid pid)
{
    inner.onDeploy(pid);
}

void
PlantedBugSink::onEpochBegin(Tick tick, Pid pid)
{
    // Forward first: the golden epoch image must be captured *before*
    // the corruption, exactly like a real backup write-path miss that
    // damages memory after the checkpoint boundary.
    inner.onEpochBegin(tick, pid);
    if (didPlant || inner.epochOf(pid) != plantAtEpoch)
        return;
    const os::Process &proc = sys.kernel().process(pid);
    Vpn vpn = os::layout::dataBase / sys.config().pageBytes;
    if (!proc.space->isMapped(vpn))
        return;
    Pfn pfn = proc.space->pageInfo(vpn).pfn;
    constexpr std::uint32_t off = 128;
    std::uint8_t byte = 0;
    sys.physMem().read(pfn, off, &byte, 1);
    byte ^= 0x5a;
    sys.physMem().write(pfn, off, &byte, 1);
    didPlant = true;
}

void
PlantedBugSink::onMacroCapture(Tick tick, Pid pid)
{
    inner.onMacroCapture(tick, pid);
}

void
PlantedBugSink::onVerdict(Tick tick, Pid pid, bool detected)
{
    inner.onVerdict(tick, pid, detected);
}

void
PlantedBugSink::onRecovered(Tick tick, Pid pid, RestoreLevel level)
{
    inner.onRecovered(tick, pid, level);
}

} // namespace indra::check
