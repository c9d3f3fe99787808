#include "rca/campaign.hh"

#include "check/ref_models.hh"
#include "core/system.hh"
#include "net/daemon_profile.hh"
#include "os/kernel.hh"
#include "sim/logging.hh"

namespace indra::rca
{

namespace
{

/**
 * The campaign serves a fixed request schedule only; a scenario that
 * also names a storm phase or a planted oracle bug would replay as a
 * different scenario than the one it names, so those fields are
 * refused instead of silently dropped.
 */
void
rejectIgnoredFields(const check::Scenario &sc)
{
    fatal_if(sc.stormBurst != 0,
             "rca campaign does not run a storm phase: storm_burst=",
             sc.stormBurst);
    fatal_if(sc.stormAttackRate != 0.0,
             "rca campaign does not run a storm phase: "
             "storm_attack_rate=", sc.stormAttackRate);
    fatal_if(sc.adversaryBudget != 0,
             "rca campaign does not run a storm phase: "
             "adversary_budget=", sc.adversaryBudget);
    fatal_if(sc.adversaryStrategy != adversary::AdversaryStrategy::Fixed,
             "rca campaign does not run a storm phase: "
             "adversary_strategy=",
             adversary::adversaryStrategyName(sc.adversaryStrategy));
    fatal_if(sc.plantAtEpoch != 0,
             "rca campaign does not plant oracle bugs: plant_at_epoch=",
             sc.plantAtEpoch);
}

std::uint64_t
slotCorruptionDetected(const core::ServiceSlot &s)
{
    std::uint64_t n = 0;
    if (s.policy)
        n += s.policy->corruptionDetected();
    if (s.macro)
        n += s.macro->corruptionDetected();
    return n;
}

/** Everything one run of the request windows recorded. */
struct WindowRun
{
    std::vector<WindowRecord> windows;
    /** The injector's site log (empty with no fault plan). */
    std::vector<faults::FaultSite> sites;
    /** Final service memory image (empty unless captured). */
    check::RefMemory finalImage;
};

/**
 * Build, boot and deploy the node @p node for @p sc, then serve
 * @p requests one processRequest window each — the loop
 * check::runScenario drives. The faulted run and its golden twin are
 * both this function, so they serve the identical schedule.
 */
WindowRun
runWindows(const core::NodeConfig &node, const check::Scenario &sc,
           const std::vector<net::ServiceRequest> &requests,
           bool capture_memory)
{
    core::IndraSystem sys(node);
    sys.boot();

    net::DaemonProfile profile = net::daemonByName(sc.daemon);
    profile.instrPerRequest = sc.instrPerRequest;
    std::size_t slot = sys.deployService(profile);

    const faults::FaultInjector *inj = sys.faultInjector();
    WindowRun run;
    run.windows.reserve(requests.size());
    for (const net::ServiceRequest &req : requests) {
        std::size_t sites0 = inj ? inj->sites().size() : 0;
        std::uint64_t corrupt0 = slotCorruptionDetected(sys.slot(slot));

        net::RequestOutcome out = sys.processRequest(slot, req);

        WindowRecord w;
        w.seq = req.seq;
        w.attack = req.attack;
        w.status = out.status;
        w.violation = out.violation;
        w.startTick = out.startTick;
        w.endTick = out.endTick;
        w.failTick = out.failTick;
        w.sitesBegin = sites0;
        w.sitesEnd = inj ? inj->sites().size() : 0;
        w.corruptionDelta =
            slotCorruptionDetected(sys.slot(slot)) - corrupt0;
        run.windows.push_back(w);
    }

    if (inj)
        run.sites = inj->sites();
    if (capture_memory) {
        const os::Process &proc =
            sys.kernel().process(sys.slot(slot).pid);
        run.finalImage.captureFrom(*proc.space, sys.physMem());
    }
    return run;
}

Cycles
windowCycles(const WindowRecord &w)
{
    return w.endTick - w.startTick;
}

Cycles
absDelta(Cycles a, Cycles b)
{
    return a > b ? a - b : b - a;
}

/** Fill a Failure's site fields from the nearest prior injection. */
void
attachSite(Failure &f, const std::vector<faults::FaultSite> &sites,
           std::size_t sites_end)
{
    const faults::FaultSite *site = attributeSite(sites, sites_end);
    if (!site)
        return;
    f.hasSite = true;
    f.siteIndex = static_cast<std::size_t>(site - sites.data());
    f.kind = site->kind;
    f.component = site->component;
    f.siteTick = site->tick;
    f.siteStreamPos = site->streamPos;
}

} // anonymous namespace

CampaignResult
runCampaign(const check::Scenario &sc, const RcaConfig &rcfg)
{
    rejectIgnoredFields(sc);

    CampaignResult res;
    std::vector<net::ServiceRequest> requests = check::scenarioRequests(sc);
    res.requests = requests.size();

    // ------------------------------------------------- faulted run
    const bool audit = rcfg.replay && rcfg.memoryAudit;
    core::NodeConfig node = check::nodeConfigFor(sc);
    WindowRun faulted = runWindows(node, sc, requests, audit);
    res.windows = std::move(faulted.windows);
    res.sites = std::move(faulted.sites);
    res.injectedTotal = res.sites.size();

    if (!rcfg.replay)
        return res;

    // ------------------------------------------------- golden twin
    // Same node recipe, faults stripped: any window that differs is
    // caused by an injection, not by build skew.
    node.faults = faults::FaultPlan{};
    WindowRun golden = runWindows(node, sc, requests, audit);
    res.replayed = true;

    // ------------------------------------------- window comparison
    for (std::size_t i = 0; i < res.windows.size(); ++i) {
        const WindowRecord &w = res.windows[i];
        const WindowRecord &g = golden.windows[i];

        Cycles skew = absDelta(windowCycles(w), windowCycles(g));
        bool diverged = w.status != g.status ||
                        w.violation != g.violation ||
                        skew > rcfg.latencySlack;
        if (!diverged)
            continue;

        Failure f;
        f.seq = w.seq;
        f.attack = w.attack;
        attachSite(f, res.sites, w.sitesEnd);
        f.detectedByMonitor =
            w.failTick != 0 || w.corruptionDelta > 0;
        f.escaped = !f.detectedByMonitor;
        f.monitorLatency =
            w.failTick != 0 ? w.failTick - w.startTick : 0;
        // Re-executing exactly this window on the twin is the replay
        // detector's detection latency.
        f.replayLatency = windowCycles(g);
        res.failures.push_back(f);
    }

    // --------------------------------------------- memory audit
    if (audit) {
        res.memoryDiverged =
            faulted.finalImage.pages() != golden.finalImage.pages();

        // Silent corruption: the final image diverged but no window
        // ever did — nothing in-band, nothing in the per-window
        // replay compare. Surface it as one synthesized escaped
        // failure attributed to the last injection.
        if (res.memoryDiverged && res.failures.empty() &&
            !res.windows.empty()) {
            Failure f;
            f.seq = res.windows.back().seq;
            f.attack = res.windows.back().attack;
            attachSite(f, res.sites, res.sites.size());
            f.detectedByMonitor = false;
            f.silent = true;
            f.escaped = true;
            for (const WindowRecord &g : golden.windows)
                f.replayLatency += windowCycles(g);
            res.failures.push_back(f);
        }
    }

    return res;
}

} // namespace indra::rca
