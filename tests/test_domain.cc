/**
 * @file
 * Tests for the isolated-domain rewind scheme: the DomainMap ownership
 * contract against the RefDomain golden model, anchor capture and
 * confined rewind exactness at the system level, the cross-domain
 * escalation boundary, per-domain health, the ablation router's
 * domain.* keys, and --jobs bit-identity of a domain-rewind storm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/ref_models.hh"
#include "checkpoint/domain_ckpt.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "net/daemon_profile.hh"
#include "net/request.hh"
#include "os/domain_map.hh"
#include "core/node_config.hh"
#include "resilience/domain_health.hh"
#include "resilience/resilience_config.hh"
#include "resilience/storm.hh"
#include "sim/random.hh"

using namespace indra;
using net::RequestStatus;

namespace
{

SystemConfig
domainSystemConfig(std::uint32_t domains = 4)
{
    SystemConfig cfg;
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    cfg.checkpointScheme = CheckpointScheme::DomainRewind;
    cfg.domainCount = domains;
    cfg.consecutiveFailureThreshold = 4;
    cfg.macroCheckpointPeriod = 10;
    return cfg;
}

resilience::ResilienceConfig
armedResilience()
{
    resilience::ResilienceConfig rc;
    rc.queueBound = 6;
    rc.fifoHighWater = 24;
    rc.degradeViolations = 2;
    rc.quarantineFailStreak = 2;
    rc.healServedStreak = 3;
    return rc;
}

/** Deploy httpd on @p sys and return its slot index. */
std::size_t
deployHttpd(core::IndraSystem &sys)
{
    sys.boot();
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25'000;
    return sys.deployService(profile);
}

net::ServiceRequest
requestIn(std::uint64_t seq, std::uint32_t domain,
          net::AttackKind attack = net::AttackKind::None)
{
    net::ServiceRequest req;
    req.seq = seq;
    req.domain = domain;
    req.attack = attack;
    return req;
}

ckpt::DomainRewindEngine &
engineOf(core::IndraSystem &sys, std::size_t slot)
{
    return *static_cast<ckpt::DomainRewindEngine *>(
        sys.slot(slot).policy.get());
}

resilience::StormPlan
reinfectStorm()
{
    resilience::StormPlan plan;
    plan.seed = 1;
    plan.legitRequests = 40;
    plan.legitRatePerMCycle = 1.0;
    plan.deadline = 3'000'000;
    plan.probePeriod = 50'000;
    plan.adversary.armed = true;
    plan.adversary.strategy = adversary::AdversaryStrategy::Reinfect;
    plan.adversary.budget = 64;
    plan.adversary.burstLen = 4;
    plan.adversary.baseGap = 500'000;
    plan.adversary.payload = net::AttackKind::StackSmash;
    plan.adversary.reinfectDelay = 100'000;
    return plan;
}

} // anonymous namespace

// ======================================== DomainMap vs RefDomain

TEST(DomainMap, ConformsToRefDomainUnderRandomWrites)
{
    os::DomainMap map;
    map.configure(4);
    check::RefDomain ref;

    Pcg32 rng(7, 0xd0);
    std::vector<Vpn> touched;
    for (int i = 0; i < 500; ++i) {
        Vpn vpn = rng.nextBounded(40);
        std::uint32_t dom = rng.nextBounded(4);
        bool newly_shared_map = map.claim(vpn, dom);
        bool was_shared_ref = ref.shared(vpn);
        ref.noteWrite(vpn, dom);
        EXPECT_EQ(newly_shared_map, !was_shared_ref && ref.shared(vpn));
        touched.push_back(vpn);
    }
    for (Vpn vpn : touched) {
        EXPECT_EQ(map.isClaimed(vpn), ref.claimed(vpn));
        EXPECT_EQ(map.ownerOf(vpn), ref.ownerOf(vpn));
        EXPECT_EQ(map.isShared(vpn), ref.shared(vpn));
    }
    // The confined rewind set falls out identically: owned and never
    // written by anyone else.
    for (std::uint32_t dom = 0; dom < 4; ++dom) {
        std::vector<Vpn> from_map;
        for (const auto &[vpn, claim] : map.claimMap()) {
            if (claim.owner == dom && !claim.shared)
                from_map.push_back(vpn);
        }
        EXPECT_EQ(from_map, ref.rewindSet(dom));
    }
}

TEST(DomainMap, NeverWrittenPageIsUnclaimedAndUnshared)
{
    os::DomainMap map;
    map.configure(2);
    EXPECT_FALSE(map.isClaimed(9));
    EXPECT_FALSE(map.isShared(9));
    EXPECT_EQ(map.ownerOf(9), 0u);
    check::RefDomain ref;
    EXPECT_FALSE(ref.claimed(9));
    EXPECT_FALSE(ref.shared(9));
    EXPECT_EQ(ref.ownerOf(9), 0u);
}

// ============================================ DomainHealthBoard

TEST(DomainHealth, RewindDegradesAndServedStreakHeals)
{
    resilience::DomainHealthBoard board(4, 3);
    EXPECT_EQ(board.domainCount(), 4u);
    EXPECT_FALSE(board.degraded(2));

    board.noteRewind(2);
    EXPECT_TRUE(board.degraded(2));
    EXPECT_EQ(board.degradedCount(), 1u);
    EXPECT_EQ(board.rewinds(), 1u);

    board.noteServed(2);
    board.noteServed(2);
    EXPECT_TRUE(board.degraded(2));
    board.noteServed(2);
    EXPECT_FALSE(board.degraded(2));
    EXPECT_EQ(board.heals(), 1u);
    EXPECT_EQ(board.degradedCount(), 0u);
}

TEST(DomainHealth, RewindMidStreakResetsTheClock)
{
    resilience::DomainHealthBoard board(2, 2);
    board.noteRewind(0);
    board.noteServed(0);
    board.noteRewind(0);  // streak back to zero
    board.noteServed(0);
    EXPECT_TRUE(board.degraded(0));
    board.noteServed(0);
    EXPECT_FALSE(board.degraded(0));
}

TEST(DomainHealth, OutOfRangeDomainIsIgnored)
{
    resilience::DomainHealthBoard board(2, 3);
    board.noteRewind(7);
    board.noteServed(7);
    EXPECT_FALSE(board.degraded(7));
    EXPECT_EQ(board.degradedCount(), 0u);
}

TEST(DomainHealth, ZeroHealStreakClampsToOne)
{
    resilience::DomainHealthBoard board(2, 0);
    board.noteRewind(1);
    EXPECT_TRUE(board.degraded(1));
    board.noteServed(1);
    EXPECT_FALSE(board.degraded(1));
}

// ================================== confined rewind, system level

TEST(DomainRewind, AttackRewindsOnlyTheAttributedDomain)
{
    core::IndraSystem sys(core::NodeConfig{domainSystemConfig()});
    std::size_t slot = deployHttpd(sys);

    // Touch every domain so ownership is spread around.
    for (std::uint64_t seq = 1; seq <= 8; ++seq) {
        net::RequestOutcome out = sys.processRequest(
            slot, requestIn(seq, static_cast<std::uint32_t>(seq % 4)));
        EXPECT_EQ(out.status, RequestStatus::Served);
    }

    net::RequestOutcome out = sys.processRequest(
        slot, requestIn(9, 2, net::AttackKind::StackSmash));
    EXPECT_EQ(out.status, RequestStatus::DomainRewound);
    EXPECT_EQ(out.domain, 2u);

    ckpt::DomainRewindEngine &eng = engineOf(sys, slot);
    EXPECT_EQ(eng.rewinds(), 1u);
    EXPECT_EQ(eng.lastRewoundDomain(), 2u);
    // Exactness of the confined set: the rewind restored exactly the
    // pages domain 2 owns outright — no shared page, no other
    // domain's page.
    std::vector<Vpn> expect;
    for (const auto &[vpn, claim] : eng.map().claimMap()) {
        if (claim.owner == 2 && !claim.shared)
            expect.push_back(vpn);
    }
    EXPECT_EQ(eng.lastRewoundPages(), expect);
    for (Vpn vpn : eng.lastRewoundPages()) {
        EXPECT_EQ(eng.ownerOf(vpn), 2u);
        EXPECT_FALSE(eng.pageShared(vpn));
    }
    // The service keeps serving afterwards — no quarantine, no
    // rejuvenation.
    net::RequestOutcome after =
        sys.processRequest(slot, requestIn(10, 1));
    EXPECT_EQ(after.status, RequestStatus::Served);
    EXPECT_EQ(sys.slot(slot).recovery->rejuvenations(), 0u);
}

TEST(DomainRewind, CrossDomainAttackEscalatesPastTheRewind)
{
    core::IndraSystem sys(core::NodeConfig{domainSystemConfig()});
    std::size_t slot = deployHttpd(sys);
    for (std::uint64_t seq = 1; seq <= 4; ++seq)
        sys.processRequest(slot, requestIn(seq, seq % 4));

    // Code injection can reach past the compartment boundary: the
    // ladder must refuse the confined rewind and fall back to the
    // macro level.
    net::RequestOutcome out = sys.processRequest(
        slot, requestIn(5, 1, net::AttackKind::CodeInjection));
    EXPECT_NE(out.status, RequestStatus::DomainRewound);
    EXPECT_EQ(sys.slot(slot).recovery->crossEscalations(), 1u);
    EXPECT_EQ(engineOf(sys, slot).rewinds(), 0u);
}

TEST(DomainRewind, RewindHealsDormantDamageInTheAttributedDomain)
{
    core::IndraSystem sys(core::NodeConfig{domainSystemConfig()});
    std::size_t slot = deployHttpd(sys);

    // Plant dormant damage in domain 3, then fail there: attribution
    // pins the rewind to the dormant domain and the anchor restore
    // wipes the plant.
    EXPECT_EQ(sys.processRequest(
                      slot, requestIn(1, 3, net::AttackKind::Dormant))
                  .status,
              RequestStatus::Served);
    EXPECT_TRUE(sys.slot(slot).app->hasDormantDamage());
    net::RequestOutcome out = sys.processRequest(
        slot, requestIn(2, 3, net::AttackKind::StackSmash));
    EXPECT_EQ(out.status, RequestStatus::DomainRewound);
    EXPECT_FALSE(sys.slot(slot).app->hasDormantDamage());
}

TEST(DomainRewind, UnassignedRequestsFallBackToSeqRoundRobin)
{
    core::IndraSystem sys(core::NodeConfig{domainSystemConfig()});
    std::size_t slot = deployHttpd(sys);
    net::ServiceRequest req;
    req.seq = 6;  // 6 % 4 == domain 2
    net::RequestOutcome out = sys.processRequest(slot, req);
    EXPECT_EQ(out.status, RequestStatus::Served);
    EXPECT_EQ(out.domain, 2u);
}

TEST(DomainRewind, OtherSchemesReportNoDomainActivity)
{
    SystemConfig cfg = domainSystemConfig();
    cfg.checkpointScheme = CheckpointScheme::DeltaBackup;
    core::IndraSystem sys(core::NodeConfig{cfg, {}, armedResilience()});
    std::size_t slot = deployHttpd(sys);
    // The per-domain board only exists under the domain scheme.
    ASSERT_NE(sys.slot(slot).guard, nullptr);
    EXPECT_EQ(sys.slot(slot).guard->domains(), nullptr);
    resilience::StormReport rep =
        core::runStorm(sys, slot, reinfectStorm());
    EXPECT_EQ(rep.domainRewinds, 0u);
    EXPECT_EQ(rep.dormantAfterRewind, 0u);
}

// =============================================== storm behaviour

TEST(DomainStorm, ReinfectAdversaryIsRewoundWithNoDormantSurvivors)
{
    core::IndraSystem sys(
        core::NodeConfig{domainSystemConfig(), {}, armedResilience()});
    std::size_t slot = deployHttpd(sys);
    resilience::StormReport rep =
        core::runStorm(sys, slot, reinfectStorm());
    EXPECT_GE(rep.domainRewinds, 1u);
    EXPECT_EQ(rep.dormantAfterRewind, 0u);
    EXPECT_GT(rep.legitServed, 0u);
}

TEST(DomainStorm, ReportIsBitIdenticalAcrossSweepJobs)
{
    // Four domain-count cells, swept serially and with 8 workers,
    // must produce byte-identical reports.
    auto run_cells = [](unsigned jobs) {
        harness::ParallelSweep sweep(jobs);
        return sweep.run(4, [](std::size_t i) {
            SystemConfig cfg = domainSystemConfig(
                2 + 2 * static_cast<std::uint32_t>(i));
            core::IndraSystem sys(core::NodeConfig{cfg, {}, armedResilience()});
            std::size_t slot = deployHttpd(sys);
            return core::runStorm(sys, slot, reinfectStorm());
        });
    };
    auto serial = run_cells(1);
    auto threaded = run_cells(8);
    EXPECT_EQ(serial, threaded);
}

// ============================================== ablation routing

TEST(DomainAblation, FullRouterAppliesDomainKeys)
{
    core::NodeConfig node;
    const SystemConfig &sys = node.system;
    const adversary::AdversaryConfig &adv = node.adversary;
    const resilience::ResilienceConfig &rc = node.resilience;
    core::applyNodeSettings(
        node,
        {"domain.count=8", "domain.rewind_setup_cycles=123",
         "domain.heal_streak=9", "adversary.budget=5"});
    EXPECT_EQ(sys.domainCount, 8u);
    EXPECT_EQ(sys.domainRewindSetupCycles, 123u);
    EXPECT_EQ(rc.domainHealStreak, 9u);
    EXPECT_EQ(adv.budget, 5u);
}

TEST(DomainAblationDeathTest, UnknownDomainKeyDiesListingValidOnes)
{
    core::NodeConfig node;
    EXPECT_DEATH(core::applyNodeSetting(node, "domain.bogus", "1"),
                 "count, rewind_setup_cycles, heal_streak");
}

TEST(DomainAblationDeathTest, ZeroHealStreakDies)
{
    core::NodeConfig node;
    EXPECT_DEATH(core::applyNodeSetting(node, "domain.heal_streak", "0"),
                 "heal_streak");
}
