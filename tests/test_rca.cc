/** @file Tests for the root-cause-analysis subsystem (src/rca): the
 * injector's append-only site log vs its per-kind counters,
 * attribution determinism across parallel job counts, planted-fault
 * site recovery, replay-detector-vs-monitor latency ordering, a clean
 * golden twin for fault-free scenarios (including guarded and
 * proactively rejuvenated ones), scenario fields the campaign does
 * not run being fatal, reproducer JSON round trips, shrunk
 * reproducers replaying to the same verdict, and the rca.* dotted-key
 * routing (unknown keys fatal, naming the key). */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/node_config.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "net/daemon_profile.hh"
#include "rca/attribution.hh"
#include "rca/campaign.hh"
#include "rca/rca_config.hh"
#include "rca/reproducer.hh"

using namespace indra;
using check::Scenario;
using rca::CampaignResult;
using rca::Failure;
using rca::RcaConfig;
using rca::Reproducer;

namespace
{

/** A short attack-heavy campaign scenario with one armed fault. */
Scenario
campaignScenario(faults::FaultKind kind, double rate,
                 std::uint64_t seed)
{
    Scenario sc;
    sc.seed = seed;
    sc.daemon = "httpd";
    sc.scheme = kind == faults::FaultKind::LogFlip
                    ? CheckpointScheme::MemoryUpdateLog
                    : CheckpointScheme::DeltaBackup;
    sc.instrPerRequest = 6000;
    sc.macroPeriod = 4;
    sc.failThreshold = 2;
    check::FaultSetting setting;
    setting.kind = kind;
    setting.rate = rate;
    setting.magnitude =
        kind == faults::FaultKind::MonitorDelay ? 500000 : 0;
    sc.faults.push_back(setting);
    static constexpr net::AttackKind attacks[] = {
        net::AttackKind::None,        net::AttackKind::StackSmash,
        net::AttackKind::None,        net::AttackKind::CodeInjection,
        net::AttackKind::DosFlood,    net::AttackKind::None,
        net::AttackKind::FormatString, net::AttackKind::StackSmash,
        net::AttackKind::None,        net::AttackKind::FuncPtrHijack,
    };
    for (net::AttackKind a : attacks) {
        check::ScenarioStep step;
        step.attack = a;
        sc.steps.push_back(step);
    }
    return sc;
}

/** Flatten a campaign's failures into one comparable string. */
std::string
failureDigest(const CampaignResult &res)
{
    std::ostringstream os;
    for (const Failure &f : res.failures) {
        os << f.seq << ":" << (f.hasSite ? f.siteIndex : 9999) << ":"
           << (f.detectedByMonitor ? "M" : "")
           << (f.escaped ? "E" : "") << (f.silent ? "S" : "") << ":"
           << f.monitorLatency << ":" << f.replayLatency << ";";
    }
    os << "|sites=" << res.sites.size()
       << "|mem=" << res.memoryDiverged;
    return os.str();
}

// The injector's site log is append-only and never disagrees with the
// per-kind injected counters, even across recoveries and epochs.
TEST(RcaSiteLog, MatchesInjectedCounters)
{
    Scenario sc = campaignScenario(faults::FaultKind::DeltaFlip, 0.5, 7);
    core::IndraSystem sys(check::nodeConfigFor(sc));
    sys.boot();
    net::DaemonProfile profile = net::daemonByName(sc.daemon);
    profile.instrPerRequest = sc.instrPerRequest;
    std::size_t slot = sys.deployService(profile);

    for (const net::ServiceRequest &req : check::scenarioRequests(sc))
        sys.processRequest(slot, req);

    const faults::FaultInjector *inj = sys.faultInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(inj->sites().size(), 0u);
    EXPECT_EQ(inj->sites().size(), inj->totalInjected());

    std::uint64_t perKind = 0;
    for (faults::FaultKind k : faults::allFaultKinds())
        perKind += inj->injected(k);
    EXPECT_EQ(inj->sites().size(), perKind);

    // Entries are stamped in firing order with 1-based per-kind
    // stream positions and monotone ticks.
    std::uint64_t pos = 0;
    Tick prev = 0;
    for (const faults::FaultSite &site : inj->sites()) {
        EXPECT_EQ(site.kind, faults::FaultKind::DeltaFlip);
        EXPECT_EQ(site.component, faults::FaultComponent::DeltaBackup);
        EXPECT_EQ(site.streamPos, ++pos);
        EXPECT_GE(site.tick, prev);
        prev = site.tick;
    }
}

// Site attribution picks the nearest prior injection, spanning
// windows when nothing fired inside the failing one.
TEST(RcaAttribution, NearestPriorSite)
{
    std::vector<faults::FaultSite> sites(3);
    for (std::size_t i = 0; i < sites.size(); ++i)
        sites[i].streamPos = i + 1;

    EXPECT_EQ(rca::attributeSite(sites, 0), nullptr);
    EXPECT_EQ(rca::attributeSite({}, 2), nullptr);
    EXPECT_EQ(rca::attributeSite(sites, 1), &sites[0]);
    EXPECT_EQ(rca::attributeSite(sites, 3), &sites[2]);
    // A stale sites_end past the log clamps to the last entry.
    EXPECT_EQ(rca::attributeSite(sites, 10), &sites[2]);
}

// The campaign verdict is a pure value of the scenario: the same
// cells swept with 1 and 8 workers produce identical attribution.
TEST(RcaCampaign, AttributionDeterministicAcrossJobs)
{
    const RcaConfig rcfg;
    static constexpr faults::FaultKind kinds[] = {
        faults::FaultKind::DeltaFlip,
        faults::FaultKind::MonitorDelay,
        faults::FaultKind::TraceCorrupt,
        faults::FaultKind::MacroCorrupt,
    };
    auto runAll = [&](unsigned jobs) {
        harness::ParallelSweep sweep(jobs);
        return sweep.run(4, [&](std::size_t i) {
            return failureDigest(rca::runCampaign(
                campaignScenario(kinds[i], 0.5, 11 + i), rcfg));
        });
    };
    std::vector<std::string> serial = runAll(1);
    std::vector<std::string> parallel = runAll(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
}

// With no faults armed there is no site log, no divergence, and no
// memory skew: the golden twin runs the same window runner as the
// faulted run and reproduces it exactly.
TEST(RcaCampaign, FaultFreeCampaignIsClean)
{
    Scenario sc = campaignScenario(faults::FaultKind::DeltaFlip, 0.5, 3);
    sc.faults.clear();
    CampaignResult res = rca::runCampaign(sc, RcaConfig{});
    EXPECT_TRUE(res.replayed);
    EXPECT_EQ(res.sites.size(), 0u);
    EXPECT_EQ(res.injectedTotal, 0u);
    EXPECT_TRUE(res.failures.empty()) << failureDigest(res);
    EXPECT_FALSE(res.memoryDiverged);
    EXPECT_EQ(res.windows.size(), sc.requestCount());
}

/** A fault-free campaign scenario built from @p steps. */
Scenario
faultFreeScenario(std::vector<check::ScenarioStep> steps)
{
    Scenario sc = campaignScenario(faults::FaultKind::DeltaFlip, 0.5, 1);
    sc.faults.clear();
    sc.steps = std::move(steps);
    return sc;
}

// Guard admission and proactive rejuvenation are part of the node,
// so the twin must see them exactly as the faulted run does: with no
// faults armed, neither a guarded node under a DoS flood nor a
// periodically rejuvenated one may show a single divergence.
TEST(RcaCampaign, FaultFreeGuardAndRejuvenationAreClean)
{
    Scenario guarded = faultFreeScenario({
        {net::AttackKind::DosFlood, 30},
        {net::AttackKind::None, 10},
    });
    guarded.guardArmed = true;

    Scenario periodic = faultFreeScenario({
        {net::AttackKind::None, 6},
        {net::AttackKind::StackSmash, 1},
        {net::AttackKind::None, 6},
    });
    periodic.rejuvenationTrigger =
        resilience::RejuvenationTrigger::Periodic;

    for (const Scenario &sc : {guarded, periodic}) {
        CampaignResult res = rca::runCampaign(sc, RcaConfig{});
        EXPECT_TRUE(res.replayed) << sc.describe();
        EXPECT_EQ(res.failures.size(), 0u)
            << sc.describe() << ": " << failureDigest(res);
        EXPECT_FALSE(res.memoryDiverged) << sc.describe();
        EXPECT_EQ(res.windows.size(), sc.requestCount())
            << sc.describe();
    }
}

// A campaign serves the request schedule only. A scenario naming a
// storm phase or a planted oracle bug would run as a different
// scenario than the one it names, so each such field is fatal and
// the message names its JSON key.
TEST(RcaCampaignDeathTest, IgnoredScenarioFieldsFatal)
{
    const Scenario base = faultFreeScenario({{net::AttackKind::None, 2}});
    auto run = [](Scenario sc) { rca::runCampaign(sc, RcaConfig{}); };

    Scenario sc = base;
    sc.stormBurst = 4;
    EXPECT_DEATH(run(sc), "storm_burst");
    sc = base;
    sc.stormAttackRate = 2.0;
    EXPECT_DEATH(run(sc), "storm_attack_rate");
    sc = base;
    sc.adversaryBudget = 8;
    EXPECT_DEATH(run(sc), "adversary_budget");
    sc = base;
    sc.adversaryStrategy = adversary::AdversaryStrategy::Reinfect;
    EXPECT_DEATH(run(sc), "adversary_strategy");
    sc = base;
    sc.plantAtEpoch = 1;
    EXPECT_DEATH(run(sc), "plant_at_epoch");
}

// A planted always-on fault is recovered at exactly its site: every
// failure attributes to the planted kind/component, and the site
// index points into the log slice at or before the failing window.
TEST(RcaCampaign, PlantedFaultSiteRecovered)
{
    Scenario sc = campaignScenario(faults::FaultKind::DeltaFlip, 1.0, 5);
    CampaignResult res = rca::runCampaign(sc, RcaConfig{});
    ASSERT_FALSE(res.failures.empty());
    for (const Failure &f : res.failures) {
        ASSERT_TRUE(f.hasSite);
        EXPECT_EQ(f.kind, faults::FaultKind::DeltaFlip);
        EXPECT_EQ(f.component, faults::FaultComponent::DeltaBackup);
        ASSERT_LT(f.siteIndex, res.sites.size());
        EXPECT_EQ(res.sites[f.siteIndex].kind, f.kind);
        // The attributed site fired no later than the end of the
        // failing window.
        bool found = false;
        for (const rca::WindowRecord &w : res.windows) {
            if (w.seq != f.seq)
                continue;
            found = true;
            if (!f.silent)
                EXPECT_LT(f.siteIndex, w.sitesEnd);
        }
        EXPECT_TRUE(found);
    }
}

// Under an injected verdict delay the in-band monitor is slow by
// construction; re-executing the window on the golden twin detects
// the same failures with strictly lower latency.
TEST(RcaReplay, BeatsDelayedMonitorLatency)
{
    Scenario sc =
        campaignScenario(faults::FaultKind::MonitorDelay, 1.0, 9);
    CampaignResult res = rca::runCampaign(sc, RcaConfig{});
    ASSERT_FALSE(res.failures.empty());
    std::size_t compared = 0;
    for (const Failure &f : res.failures) {
        EXPECT_TRUE(f.detectedByReplay);
        if (!f.detectedByMonitor || !f.monitorLatency)
            continue;
        ++compared;
        EXPECT_GE(f.monitorLatency, 500000u);
        EXPECT_LT(f.replayLatency, f.monitorLatency);
    }
    EXPECT_GT(compared, 0u);
}

// An escaped failure round-trips: packaged, serialized, parsed back,
// shrunk, and the shrunk reproducer still replays to the recorded
// verdict.
TEST(RcaReproducer, ShrunkReproducerReplaysSameVerdict)
{
    RcaConfig rcfg;
    rcfg.shrinkBudget = 24;
    Scenario sc = campaignScenario(faults::FaultKind::DeltaFlip, 0.5, 1);
    CampaignResult res = rca::runCampaign(sc, rcfg);
    ASSERT_GT(rca::escapesFor(res, faults::FaultComponent::DeltaBackup),
              0u);

    Reproducer rep = rca::makeReproducer(sc, res);
    EXPECT_TRUE(rca::replayReproducer(rep, rcfg));

    Reproducer shrunk = rca::shrinkReproducer(rep, rcfg);
    EXPECT_LE(shrunk.scenario.requestCount(), sc.requestCount());
    EXPECT_GT(shrunk.expectEscapes, 0u);
    EXPECT_TRUE(rca::replayReproducer(shrunk, rcfg));

    // JSON round trip preserves the scenario and the verdict keys,
    // and the sidecar keys stay invisible to the plain parser.
    std::string json = rca::reproducerToJson(shrunk);
    Reproducer parsed = rca::reproducerFromJson(json);
    EXPECT_EQ(parsed, shrunk);
    EXPECT_EQ(Scenario::fromJson(json), shrunk.scenario);
    EXPECT_TRUE(rca::replayReproducer(parsed, rcfg));
}

// Violations report how many sites had fired when they were recorded
// (0 with no injector), giving the oracle's nearest-prior attribution
// anchor.
TEST(RcaAttribution, FormatSiteId)
{
    faults::FaultSite site;
    site.kind = faults::FaultKind::MonitorFalseNegative;
    site.component = faults::FaultComponent::MonitorVerdict;
    site.tick = 120000;
    site.streamPos = 3;
    EXPECT_EQ(rca::formatSiteId(site, 7),
              "monitor-verdict/monitor-miss#3@120000 (site 7)");
}

// rca.* keys route through the NodeConfig dotted-key entry point;
// unknown rca keys die naming the key.
TEST(RcaConfigTest, DottedKeysRouted)
{
    core::NodeConfig node;
    core::applyNodeSetting(node, "rca.replay", "off");
    EXPECT_FALSE(node.rca.replay);
    core::applyNodeSetting(node, "rca.memory_audit", "0");
    EXPECT_FALSE(node.rca.memoryAudit);
    core::applyNodeSetting(node, "rca.latency_slack", "4321");
    EXPECT_EQ(node.rca.latencySlack, 4321u);
    core::applyNodeSettings(
        node, {"rca.shrink_budget=17", "rca.max_reproducers=3"});
    EXPECT_EQ(node.rca.shrinkBudget, 17u);
    EXPECT_EQ(node.rca.maxReproducers, 3u);

    EXPECT_EQ(rca::describeRcaConfig(node.rca),
              "replay=0 memory_audit=0 latency_slack=4321 "
              "shrink_budget=17 max_reproducers=3");
}

TEST(RcaConfigDeathTest, UnknownKeyFatal)
{
    core::NodeConfig node;
    EXPECT_DEATH(core::applyNodeSetting(node, "rca.bogus", "1"),
                 "rca.bogus");
    EXPECT_DEATH(
        core::applyNodeSetting(node, "rca.latency_slack", "abc"),
        "rca.latency_slack");
    EXPECT_DEATH(core::applyNodeSetting(node, "rca.nope", "1"),
                 "rca.nope");
}

} // anonymous namespace
