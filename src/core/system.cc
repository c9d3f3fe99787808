#include "core/system.hh"

#include <algorithm>

#include "checkpoint/domain_ckpt.hh"
#include "sim/logging.hh"

namespace indra::core
{

namespace
{

/** The resurrector's runtime system image: "less than 10MB". */
constexpr std::uint64_t rtsBytes = 10ULL * 1024 * 1024;
/** Size of the BIOS copy duplicated for the resurrectees. */
constexpr std::uint64_t biosCopyBytes = 64ULL * 1024;

} // anonymous namespace

IndraSystem::IndraSystem(const NodeConfig &node)
    : cfg(node.system), resCfg(node.resilience), statRoot("system")
{
    cfg.validate();
    // An empty plan creates no injector at all: every consumer holds
    // a null pointer and runs the exact pre-fault-subsystem code path.
    if (!node.faults.empty()) {
        injectorPtr = std::make_unique<faults::FaultInjector>(
            node.faults, statRoot);
    }
    phys = std::make_unique<mem::PhysicalMemory>(cfg.physMemBytes,
                                                 cfg.pageBytes);
    if (cfg.asymmetricMode)
        watchdogPtr = std::make_unique<mem::MemWatchdog>(statRoot);
    kernelPtr = std::make_unique<os::Kernel>(*phys, cfg.pageBytes,
                                             watchdogPtr.get(), statRoot);
    kernelPtr->setListener(this);
}

IndraSystem::~IndraSystem()
{
    // Services (and their backup frames) go before the resurrector's
    // private frames.
    slots.clear();
    for (Pfn pfn : resurrectorPrivate)
        phys->freeFrame(pfn);
}

void
IndraSystem::boot()
{
    panic_if(isBooted, "boot() called twice");

    if (cfg.asymmetricMode) {
        // The bootstrap resurrector boots first from the regular BIOS
        // and the flash-resident RTS, then hides both from the
        // resurrectees by keeping the frames ungranted (the watchdog
        // denies low-privilege access to ungranted frames).
        rtsFrames = rtsBytes / cfg.pageBytes;
        for (std::uint64_t i = 0; i < rtsFrames; ++i)
            resurrectorPrivate.push_back(phys->allocFrame());

        // Duplicate a BIOS image into space the resurrectees may read
        // so they can boot their full OS from it.
        std::uint64_t bios_frames = biosCopyBytes / cfg.pageBytes;
        for (std::uint64_t i = 0; i < bios_frames; ++i) {
            Pfn pfn = phys->allocFrame();
            resurrectorPrivate.push_back(pfn);
            for (std::uint32_t c = 1; c <= cfg.numResurrectees; ++c)
                watchdogPtr->grant(pfn, static_cast<CoreId>(c));
        }
    }
    isBooted = true;
}

std::size_t
IndraSystem::deployService(const net::DaemonProfile &profile)
{
    panic_if(!isBooted, "deployService before boot");
    fatal_if(slots.size() >= cfg.numResurrectees,
             "no free resurrectee core (have ", cfg.numResurrectees,
             ")");

    auto s = std::make_unique<ServiceSlot>();
    std::size_t idx = slots.size();
    s->coreId = static_cast<CoreId>(
        (cfg.asymmetricMode ? 1 : 0) + idx);
    s->statGroup = std::make_unique<stats::StatGroup>(
        statRoot, profile.name + "_" + std::to_string(idx));

    s->pid = kernelPtr->createProcess(profile.name, s->coreId);
    os::Process &proc = kernelPtr->process(s->pid);

    s->bus = std::make_unique<mem::MemoryBus>(
        cfg.busRatio(), cfg.busWidthBytes, *s->statGroup);
    s->dram = std::make_unique<mem::DramModel>(
        cfg.dram, cfg.busRatio(), cfg.busWidthBytes, *s->statGroup);
    // The kernel translates for every process on this core (the MMU
    // walks the page table selected by the access's CR3 tag).
    s->hierarchy = std::make_unique<mem::MemHierarchy>(
        cfg, s->coreId, Privilege::Low, *kernelPtr, watchdogPtr.get(),
        *s->bus, *s->dram, *s->statGroup);
    s->core = std::make_unique<cpu::Core>(cfg, s->coreId, Privilege::Low,
                                          *s->hierarchy, *phys,
                                          *kernelPtr, *s->statGroup);
    s->core->setSyscallHandler(kernelPtr.get());

    s->app = std::make_unique<net::ServiceApplication>(
        profile, cfg.rngSeed + idx * 7919, cfg.pageBytes);
    s->app->program().loadInto(*proc.space);

    if (cfg.asymmetricMode && cfg.monitorEnabled) {
        s->monitor = std::make_unique<mon::Monitor>(cfg, *s->statGroup);
        s->app->program().registerWith(*s->monitor, s->pid);
        s->core->setTraceSink(s->monitor.get());
        s->monitor->setFaultInjector(injectorPtr.get());
    }

    s->policy = ckpt::makePolicy(cfg, *proc.context, *proc.space, *phys,
                                 *s->hierarchy, *s->statGroup);
    s->policy->setFaultInjector(injectorPtr.get());
    s->core->setCheckpointHooks(s->policy.get());
    proc.resources->setFaultInjector(injectorPtr.get());

    s->macro = std::make_unique<ckpt::MacroCheckpoint>(
        cfg, *phys, *s->hierarchy, *s->statGroup);
    s->macro->setFaultInjector(injectorPtr.get());
    s->recovery = std::make_unique<RecoveryManager>(
        cfg, *s->policy, *s->macro, *kernelPtr, *phys, s->pid, *s->core,
        s->monitor.get(), *s->statGroup);

    // Under DomainRewind the policy *is* the domain engine; give the
    // recovery ladder its domain-typed view so it can offer the
    // confined rung.
    if (cfg.checkpointScheme == CheckpointScheme::DomainRewind) {
        s->recovery->setDomainEngine(
            static_cast<ckpt::DomainRewindEngine *>(s->policy.get()));
    }

    // Take the initial application checkpoint (the last-resort
    // restore image), then zero the service's clock so measurements
    // start clean.
    s->recovery->takeMacroCheckpoint(0);
    s->core->resetTime();

    // Arm the overload-resilience front door only when the config
    // asks for one; with no guard, request processing runs the exact
    // pre-resilience code path.
    if (resCfg.enabled()) {
        s->guard = std::make_unique<resilience::ServiceGuard>(
            resCfg, *s->statGroup);
        s->guard->noteHeapPages(proc.resources->heapPages(), 0);
        // Per-domain health only makes sense when requests carry a
        // domain; with any other scheme the guard tracks node health
        // exactly as before.
        if (cfg.checkpointScheme == CheckpointScheme::DomainRewind)
            s->guard->enableDomains(cfg.domainCount);
    }

    if (traceLogPtr)
        wireSlotTracing(*s);

    slots.push_back(std::move(s));
    if (checkSinkPtr)
        checkSinkPtr->onDeploy(slots.back()->pid);
    return idx;
}

void
IndraSystem::wireSlotTracing(ServiceSlot &s)
{
    auto src = static_cast<std::uint32_t>(s.coreId);
    if (s.monitor)
        s.monitor->setTraceLog(traceLogPtr, src);
    s.policy->setTraceLog(traceLogPtr, src);
    s.macro->setTraceLog(traceLogPtr, src);
    s.recovery->setTraceLog(traceLogPtr, src);
    if (s.guard)
        s.guard->setTraceLog(traceLogPtr, src);
    for (auto &co : s.coServices) {
        co->policy->setTraceLog(traceLogPtr, src);
        co->macro->setTraceLog(traceLogPtr, src);
        co->recovery->setTraceLog(traceLogPtr, src);
    }
}

void
IndraSystem::attachTraceLog(obs::TraceLog *log)
{
    traceLogPtr = log;
    // The injector is shared by every service; its events carry the
    // system-wide source 0 and are stamped via the log's now().
    if (injectorPtr)
        injectorPtr->setTraceLog(log, 0);
    for (auto &s : slots)
        wireSlotTracing(*s);
}

ServiceSlot &
IndraSystem::slot(std::size_t idx)
{
    panic_if(idx >= slots.size(), "bad service slot index");
    return *slots[idx];
}

IndraSystem::ServiceRefs
IndraSystem::refsForMain(std::size_t slot_idx)
{
    ServiceSlot &s = slot(slot_idx);
    return ServiceRefs{&s, s.app.get(), s.policy.get(), s.macro.get(),
                       s.recovery.get(), s.pid,
                       &s.requestsSinceMacro};
}

IndraSystem::ServiceRefs
IndraSystem::refsForCo(std::size_t slot_idx, std::size_t co_idx)
{
    ServiceSlot &s = slot(slot_idx);
    panic_if(co_idx >= s.coServices.size(), "bad co-service index");
    CoService &co = *s.coServices[co_idx];
    return ServiceRefs{&s, co.app.get(), co.policy.get(),
                       co.macro.get(), co.recovery.get(), co.pid,
                       &co.requestsSinceMacro};
}

std::optional<IndraSystem::ServiceRefs>
IndraSystem::refsForPid(Pid pid)
{
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i]->pid == pid)
            return refsForMain(i);
        for (std::size_t c = 0; c < slots[i]->coServices.size(); ++c) {
            if (slots[i]->coServices[c]->pid == pid)
                return refsForCo(i, c);
        }
    }
    return std::nullopt;
}

Cycles
IndraSystem::onRequestCheckpoint(Tick tick, Pid pid)
{
    std::optional<ServiceRefs> refs = refsForPid(pid);
    panic_if(!refs, "no service for pid ", pid);
    Cycles cost = refs->policy->onRequestBegin(tick);
    refs->recovery->noteRequestBegin(tick);
    if (checkSinkPtr)
        checkSinkPtr->onEpochBegin(tick, pid);
    return cost;
}

void
IndraSystem::onDynCodeDeclared(Pid pid, Addr base, std::uint64_t len)
{
    std::optional<ServiceRefs> refs = refsForPid(pid);
    panic_if(!refs, "no service for pid ", pid);
    if (refs->slot->monitor)
        refs->slot->monitor->registerDynCodeRegion(pid, base, len);
}

std::size_t
IndraSystem::deployCoService(std::size_t host_slot,
                             const net::DaemonProfile &profile)
{
    ServiceSlot &s = slot(host_slot);

    auto co = std::make_unique<CoService>();
    co->pid = kernelPtr->createProcess(profile.name, s.coreId);
    os::Process &proc = kernelPtr->process(co->pid);

    co->app = std::make_unique<net::ServiceApplication>(
        profile,
        cfg.rngSeed + 104729 * (s.coServices.size() + 1) + host_slot,
        cfg.pageBytes);
    co->app->program().loadInto(*proc.space);
    if (s.monitor)
        co->app->program().registerWith(*s.monitor, co->pid);

    co->policy = ckpt::makePolicy(cfg, *proc.context, *proc.space,
                                  *phys, *s.hierarchy, *s.statGroup);
    co->policy->setFaultInjector(injectorPtr.get());
    proc.resources->setFaultInjector(injectorPtr.get());
    co->macro = std::make_unique<ckpt::MacroCheckpoint>(
        cfg, *phys, *s.hierarchy, *s.statGroup);
    co->macro->setFaultInjector(injectorPtr.get());
    co->recovery = std::make_unique<RecoveryManager>(
        cfg, *co->policy, *co->macro, *kernelPtr, *phys, co->pid,
        *s.core, s.monitor.get(), *s.statGroup);
    if (cfg.checkpointScheme == CheckpointScheme::DomainRewind) {
        co->recovery->setDomainEngine(
            static_cast<ckpt::DomainRewindEngine *>(co->policy.get()));
    }

    // Install (or extend) the CR3-routed hook mux on the shared core.
    if (!s.hookMux) {
        s.hookMux = std::make_unique<PidRoutedHooks>();
        s.hookMux->route(s.pid, s.policy.get());
        s.core->setCheckpointHooks(s.hookMux.get());
    }
    s.hookMux->route(co->pid, co->policy.get());

    co->recovery->takeMacroCheckpoint(s.core->curTick());

    s.coServices.push_back(std::move(co));
    if (traceLogPtr)
        wireSlotTracing(s);
    if (checkSinkPtr)
        checkSinkPtr->onDeploy(s.coServices.back()->pid);
    return s.coServices.size() - 1;
}

net::RequestOutcome
IndraSystem::runOneRequest(const ServiceRefs &refs,
                           const net::ServiceRequest &req)
{
    ServiceSlot &s = *refs.slot;

    // Time-shared core: switch process contexts when another process
    // last ran here (pipeline flush, CAM invalidation, switch cost).
    if (s.runningPid != 0 && s.runningPid != refs.pid)
        s.core->onContextSwitch();
    s.runningPid = refs.pid;

    net::RequestOutcome out;
    out.seq = req.seq;
    out.attack = req.attack;
    out.clientClass = req.clientClass;
    out.startTick = s.core->curTick();
    std::uint64_t instr0 = s.core->instructions();

    // Under DomainRewind every request executes inside one isolated
    // domain: the one stamped on the request, or a deterministic
    // round-robin fallback for callers that never assign domains.
    const net::ServiceRequest *reqp = &req;
    net::ServiceRequest domain_req;
    if (cfg.checkpointScheme == CheckpointScheme::DomainRewind) {
        std::uint32_t dom = req.domain != net::domainUnassigned
            ? req.domain
            : static_cast<std::uint32_t>(req.seq % cfg.domainCount);
        domain_req = req;
        domain_req.domain = dom;
        reqp = &domain_req;
        out.domain = dom;
        static_cast<ckpt::DomainRewindEngine *>(refs.policy)
            ->setActiveDomain(dom);
    }

#if INDRA_OBS_TRACING_ENABLED
    // Clockless emitters (the fault injector) stamp their events with
    // the log's now(); keep it on the serving core's clock.
    if (traceLogPtr)
        traceLogPtr->setNow(out.startTick);
#endif
    // The injector's site log stamps firings with its own clock so
    // attribution works with tracing compiled out too.
    if (injectorPtr)
        injectorPtr->setNow(out.startTick);

    // Corruption detections before this request; the delta feeds the
    // health state machine (checksum mismatches are hard evidence the
    // service's backups are being eaten).
    std::uint64_t corrupt0 = 0;
    if (s.guard) {
        corrupt0 = refs.policy->corruptionDetected() +
                   refs.macro->corruptionDetected();
    }

    net::RequestExecution gen = refs.app->beginRequest(*reqp);
    cpu::Instruction inst;
    bool failed = false;
    bool detected = false;
    Tick fail_tick = 0;

    while (gen.next(inst)) {
        cpu::ExecResult res = s.core->execute(refs.pid, inst);

        if (s.monitor && s.monitor->pendingDetection()) {
            const mon::DetectionEvent &det =
                *s.monitor->pendingDetection();
            out.violation = det.violation;
            detected = true;
            failed = true;
            fail_tick = std::max(s.core->curTick(), det.detectTick);
            s.monitor->clearDetection();
            break;
        }
        if (res.fault != mem::MemFault::None || res.terminated) {
            failed = true;
            fail_tick = s.core->curTick();
            break;
        }
        if (res.halted)
            break;
    }

    if (checkSinkPtr)
        checkSinkPtr->onVerdict(s.core->curTick(), refs.pid, detected);

    if (failed) {
        handleFailure(refs, out, fail_tick, detected, out.violation);
    } else {
        out.status = net::RequestStatus::Served;
        refs.recovery->noteSuccess();
        ++s.requestsProcessed;
        if (++*refs.requestsSinceMacro >= cfg.macroCheckpointPeriod) {
            refs.recovery->takeMacroCheckpoint(s.core->curTick());
            *refs.requestsSinceMacro = 0;
            if (s.guard)
                s.guard->noteMacroEpoch();
            if (checkSinkPtr)
                checkSinkPtr->onMacroCapture(s.core->curTick(), refs.pid);
        }
    }

    out.endTick = s.core->curTick();
    out.instructions = s.core->instructions() - instr0;

    if (s.guard) {
        std::uint64_t corrupt1 = refs.policy->corruptionDetected() +
                                 refs.macro->corruptionDetected();
        s.guard->observeOutcome(out, corrupt1 - corrupt0, out.endTick);
        s.guard->noteHeapPages(
            kernelPtr->process(refs.pid).resources->heapPages(),
            out.endTick);
    }
    return out;
}

net::RequestOutcome
IndraSystem::processRequest(std::size_t slot_idx,
                            const net::ServiceRequest &req)
{
    return runOneRequest(refsForMain(slot_idx), req);
}

net::RequestOutcome
IndraSystem::processCoRequest(std::size_t slot_idx, std::size_t co_idx,
                              const net::ServiceRequest &req)
{
    return runOneRequest(refsForCo(slot_idx, co_idx), req);
}

void
IndraSystem::handleFailure(const ServiceRefs &refs,
                           net::RequestOutcome &out, Tick fail_tick,
                           bool detected, mon::Violation violation)
{
    ServiceSlot &s = *refs.slot;
    out.violation = violation;
    out.failTick = fail_tick;

    if (cfg.checkpointScheme != CheckpointScheme::None) {
        ckpt::DomainRewindEngine *dom_engine = nullptr;
        if (cfg.checkpointScheme == CheckpointScheme::DomainRewind) {
            // Attribute the failure before the ladder runs: dormant
            // damage is pinned to the domain it was planted in, an
            // acute failure to the domain serving this request. An
            // exploit class with an arbitrary-write primitive can
            // reach past the compartment boundary, so flag it as
            // cross-domain taint (the ladder escalates instead).
            dom_engine =
                static_cast<ckpt::DomainRewindEngine *>(refs.policy);
            std::uint32_t dom =
                refs.app->hasDormantDamage() &&
                        refs.app->dormantDomain() != net::domainUnassigned
                    ? refs.app->dormantDomain()
                    : dom_engine->activeDomain();
            bool cross =
                out.attack == net::AttackKind::CodeInjection ||
                out.attack == net::AttackKind::FormatString;
            dom_engine->attributeFailure(dom, cross);
        }

        RecoveryLevel level = refs.recovery->recover(fail_tick);
        if (level == RecoveryLevel::Rejuvenation) {
            // The reborn service starts from its load image: nothing
            // dormant survives, and a fresh macro checkpoint was
            // already taken inside the rejuvenation.
            out.status = net::RequestStatus::Rejuvenated;
            refs.app->healDormantDamage();
            *refs.requestsSinceMacro = 0;
        } else if (level == RecoveryLevel::Macro) {
            out.status = net::RequestStatus::MacroRecovered;
            refs.app->healDormantDamage();
            *refs.requestsSinceMacro = 0;
        } else if (level == RecoveryLevel::Domain) {
            out.status = net::RequestStatus::DomainRewound;
            // Rewinding the compartment the damage was planted in
            // restores its pre-plant anchors: the plant is gone.
            if (refs.app->hasDormantDamage() &&
                dom_engine->lastRewoundDomain() ==
                    refs.app->dormantDomain()) {
                refs.app->healDormantDamage();
            }
        } else {
            out.status = detected
                ? net::RequestStatus::DetectedRecovered
                : net::RequestStatus::CrashedRecovered;
        }

        // The ladder may have bypassed the domain rung entirely (e.g.
        // integrity escalation straight to macro): never let a stale
        // attribution leak into the next failure.
        if (dom_engine && dom_engine->attributionPending())
            dom_engine->clearAttribution();
        // The oracle audits the *post-recovery* state — after the
        // dormant heal above, so the no-surviving-reinfection
        // invariant sees what the next request will see.
        if (checkSinkPtr) {
            // The delta engine restores lazily (rollback-on-demand);
            // force the remaining pages back so the oracle compares
            // fully restored memory. The cost is discarded — the
            // checker must not perturb the timing it audits.
            if (level == RecoveryLevel::Micro)
                refs.policy->drainRollback(s.core->curTick());
            check::RestoreLevel rl =
                level == RecoveryLevel::Micro
                    ? check::RestoreLevel::Micro
                    : level == RecoveryLevel::Domain
                          ? check::RestoreLevel::Domain
                          : level == RecoveryLevel::Macro
                                ? check::RestoreLevel::Macro
                                : check::RestoreLevel::Rejuvenation;
            checkSinkPtr->onRecovered(s.core->curTick(), refs.pid, rl);
        }
        return;
    }

    // No backup engine: the service goes down and must be restarted
    // from its initial image — the conventional outcome the paper's
    // Section 2.2 argues against.
    out.status = net::RequestStatus::Lost;
    s.core->stallUntil(fail_tick);
    s.core->stall(cfg.serviceRestartCycles);
    s.core->flushPipeline();
    if (refs.macro->hasCheckpoint()) {
        os::Process &proc = kernelPtr->process(refs.pid);
        refs.macro->restore(s.core->curTick(), *proc.context,
                            *proc.space, *proc.resources);
    }
    refs.app->healDormantDamage();
    if (s.monitor)
        s.monitor->onRecovery(refs.pid);
}

void
IndraSystem::proactiveRejuvenate(std::size_t slot_idx, Tick now,
                                 std::uint8_t trigger)
{
    ServiceRefs refs = refsForMain(slot_idx);
    ServiceSlot &s = *refs.slot;
    s.core->stallUntil(now);
    Tick t0 = s.core->curTick();
    refs.recovery->proactiveRestore(t0);
    refs.app->healDormantDamage();
    *refs.requestsSinceMacro = 0;
    if (checkSinkPtr)
        checkSinkPtr->onRecovered(s.core->curTick(), refs.pid,
                                  check::RestoreLevel::Rejuvenation);
    if (s.guard)
        s.guard->noteProactiveRestore(s.core->curTick());
    INDRA_TRACE(traceLogPtr, s.core->curTick(),
                obs::EventKind::ProactiveRestore,
                static_cast<std::uint32_t>(s.coreId),
                static_cast<std::uint64_t>(trigger),
                s.core->curTick() - t0);
}

std::vector<net::RequestOutcome>
IndraSystem::runScript(const std::vector<net::ServiceRequest> &script,
                       std::size_t slot_idx)
{
    std::vector<net::RequestOutcome> outcomes;
    outcomes.reserve(script.size());
    for (const net::ServiceRequest &req : script)
        outcomes.push_back(processRequest(slot_idx, req));
    return outcomes;
}

} // namespace indra::core
