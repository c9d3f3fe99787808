/**
 * @file
 * Tests for the adaptive-adversary layer and the proactive-
 * rejuvenation machinery it is paired against: the closed-loop
 * attacker's strategies and determinism contract, the dotted
 * `adversary.*` / `rejuvenation.*` / `resilience.*` registry keys
 * (unknown keys and malformed values must die naming the key), the
 * client-backoff saturation boundary, and the HealthMonitor's
 * proactive transition paths.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hh"
#include "adversary/adversary_config.hh"
#include "net/request.hh"
#include "core/node_config.hh"
#include "resilience/health.hh"
#include "resilience/rejuvenation.hh"
#include "resilience/resilience_config.hh"
#include "resilience/retry.hh"

using namespace indra;
using namespace indra::adversary;
using namespace indra::resilience;
using net::AttackKind;
using net::RequestOutcome;
using net::RequestStatus;

namespace
{

AdversaryConfig
armedConfig(AdversaryStrategy s, std::uint64_t budget = 16)
{
    AdversaryConfig cfg;
    cfg.armed = true;
    cfg.strategy = s;
    cfg.budget = budget;
    cfg.burstLen = 4;
    cfg.baseGap = 100000;
    return cfg;
}

RequestOutcome
outcomeAt(RequestStatus st, Tick start, Tick end)
{
    RequestOutcome o;
    o.status = st;
    o.startTick = start;
    o.endTick = end;
    return o;
}

ResilienceConfig
healthConfig()
{
    ResilienceConfig rc;
    rc.queueBound = 8;
    rc.degradeViolations = 2;
    rc.quarantineFailStreak = 2;
    rc.healServedStreak = 3;
    return rc;
}

RequestOutcome
attackDetected()
{
    RequestOutcome o;
    o.status = RequestStatus::DetectedRecovered;
    o.violation = mon::Violation::StackSmash;
    return o;
}

RequestOutcome
served()
{
    RequestOutcome o;
    o.status = RequestStatus::Served;
    return o;
}

} // anonymous namespace

// ============================================== adversary: contract

TEST(Adversary, DisarmedPlansNothing)
{
    AdversaryConfig cfg; // default: disarmed
    EXPECT_FALSE(cfg.enabled());
    AdaptiveAdversary adv(cfg, 1);
    EXPECT_EQ(adv.budgetLeft(), 0u);
    EXPECT_FALSE(adv.nextMove(0).has_value());
}

TEST(Adversary, BudgetIsConserved)
{
    AdaptiveAdversary adv(armedConfig(AdversaryStrategy::Fixed, 10), 7);
    std::uint64_t issued = 0;
    Tick now = 0;
    while (auto m = adv.nextMove(now)) {
        issued += m->count;
        now = m->tick;
    }
    // burstLen 4 against budget 10: 4 + 4 + a truncated 2.
    EXPECT_EQ(issued, 10u);
    EXPECT_EQ(adv.requestsIssued(), 10u);
    EXPECT_EQ(adv.budgetLeft(), 0u);
    EXPECT_EQ(adv.movesIssued(), 3u);
    EXPECT_FALSE(adv.nextMove(now).has_value());
}

TEST(Adversary, HorizonRefusalSpendsNoBudget)
{
    AdaptiveAdversary adv(armedConfig(AdversaryStrategy::Fixed, 8), 7);
    adv.setHorizon(1); // every planned gap lands past this
    EXPECT_FALSE(adv.nextMove(0).has_value());
    EXPECT_EQ(adv.budgetLeft(), 8u);
    EXPECT_EQ(adv.movesIssued(), 0u);
}

TEST(Adversary, FixedSeedIsBitReproducible)
{
    // Two attackers with the same (config, seed) fed the same
    // observation sequence must plan the same schedule.
    AdversaryConfig cfg = armedConfig(AdversaryStrategy::ProbeBurst, 24);
    AdaptiveAdversary a(cfg, 99), b(cfg, 99);
    Tick now = 0;
    for (int i = 0; i < 8; ++i) {
        a.observeAdmission(now, i % 5, 8);
        b.observeAdmission(now, i % 5, 8);
        auto ma = a.nextMove(now);
        auto mb = b.nextMove(now);
        ASSERT_EQ(ma.has_value(), mb.has_value());
        if (!ma)
            break;
        EXPECT_EQ(ma->tick, mb->tick);
        EXPECT_EQ(ma->count, mb->count);
        EXPECT_EQ(static_cast<int>(ma->payload),
                  static_cast<int>(mb->payload));
        now = ma->tick;
    }
    // Distinct seeds diverge (streams are seeded per strategy).
    AdaptiveAdversary c(cfg, 100);
    auto ma = AdaptiveAdversary(cfg, 99).nextMove(0);
    auto mc = c.nextMove(0);
    ASSERT_TRUE(ma && mc);
    EXPECT_NE(ma->tick, mc->tick);
}

// ============================================ adversary: strategies

TEST(Adversary, ProbeBurstFiresOnHotFifo)
{
    AdversaryConfig cfg = armedConfig(AdversaryStrategy::ProbeBurst, 32);
    cfg.occupancyFraction = 0.5;
    AdaptiveAdversary adv(cfg, 3);

    // Cold FIFO: a lone probe on the exponential cadence.
    adv.observeAdmission(10, 1, 48);
    auto probe = adv.nextMove(10);
    ASSERT_TRUE(probe);
    EXPECT_EQ(probe->count, 1u);

    // Hot FIFO (occupancy >= fraction * high water): immediate burst.
    adv.observeAdmission(probe->tick, 24, 48);
    auto burst = adv.nextMove(probe->tick);
    ASSERT_TRUE(burst);
    EXPECT_EQ(burst->tick, probe->tick + 1);
    EXPECT_EQ(burst->count, cfg.burstLen);

    // The occupancy reading is consumed: without a fresh admission
    // sample the attacker drops back to probing.
    auto again = adv.nextMove(burst->tick);
    ASSERT_TRUE(again);
    EXPECT_EQ(again->count, 1u);
}

TEST(Adversary, ProbeBurstBacksOffWhileQuarantineSheds)
{
    // Twin attackers consume identical RNG draws; the one that saw
    // its traffic quarantine-shed stretches the same gap by exactly
    // 3 * baseGap.
    AdversaryConfig cfg = armedConfig(AdversaryStrategy::ProbeBurst, 8);
    AdaptiveAdversary calm(cfg, 5), shed(cfg, 5);
    shed.observeShed(0, net::ShedReason::Quarantined, true);
    auto mc = calm.nextMove(0);
    auto ms = shed.nextMove(0);
    ASSERT_TRUE(mc && ms);
    EXPECT_EQ(ms->tick, mc->tick + 3 * cfg.baseGap);

    // A shed of someone else's traffic is not a signal.
    AdaptiveAdversary other(cfg, 5);
    other.observeShed(0, net::ShedReason::Quarantined, false);
    auto mo = other.nextMove(0);
    ASSERT_TRUE(mo);
    EXPECT_EQ(mo->tick, mc->tick);
}

TEST(Adversary, ReinfectRunsPlantTriggerReplant)
{
    AdversaryConfig cfg = armedConfig(AdversaryStrategy::Reinfect, 32);
    cfg.reinfectDelay = 500;
    AdaptiveAdversary adv(cfg, 11);

    // Opening move: a single dormant plant.
    auto plant = adv.nextMove(0);
    ASSERT_TRUE(plant);
    EXPECT_EQ(plant->count, 1u);
    EXPECT_EQ(plant->payload, AttackKind::Dormant);
    EXPECT_EQ(adv.reinfectPlants(), 0u); // opening plant, not a re-plant

    // While the plant is live: benign-looking trigger bursts (a fresh
    // plant would only push the surfacing point forward).
    auto trigger = adv.nextMove(plant->tick);
    ASSERT_TRUE(trigger);
    EXPECT_EQ(trigger->payload, AttackKind::None);
    EXPECT_EQ(trigger->count, cfg.burstLen);

    // A heal outcome cues the re-plant, reinfectDelay after it.
    Tick healAt = trigger->tick + 12345;
    adv.observeOutcome(healAt, outcomeAt(RequestStatus::Rejuvenated,
                                         trigger->tick, healAt), false);
    auto replant = adv.nextMove(healAt);
    ASSERT_TRUE(replant);
    EXPECT_EQ(replant->payload, AttackKind::Dormant);
    EXPECT_EQ(replant->count, 1u);
    EXPECT_EQ(replant->tick, healAt + cfg.reinfectDelay);
    EXPECT_EQ(adv.reinfectPlants(), 1u);

    // And the cycle repeats: triggers again until the next heal.
    auto next = adv.nextMove(replant->tick);
    ASSERT_TRUE(next);
    EXPECT_EQ(next->payload, AttackKind::None);
}

TEST(Adversary, ReinfectCuesOnHealthEdge)
{
    // The Rejuvenating -> Healthy health transition marks the same
    // revival moment as a Rejuvenated outcome.
    AdversaryConfig cfg = armedConfig(AdversaryStrategy::Reinfect, 8);
    cfg.reinfectDelay = 100;
    AdaptiveAdversary adv(cfg, 3);
    auto plant = adv.nextMove(0); // opening plant
    ASSERT_TRUE(plant);
    Tick t = plant->tick;
    adv.observeHealth(t + 100, 3); // Rejuvenating
    adv.observeHealth(t + 200, 0); // Healthy: revival complete
    auto replant = adv.nextMove(t + 200);
    ASSERT_TRUE(replant);
    EXPECT_EQ(replant->payload, AttackKind::Dormant);
    EXPECT_EQ(replant->tick, t + 300);
    EXPECT_EQ(adv.reinfectPlants(), 1u);
}

TEST(Adversary, LatencyTunerTracksRecoveryLatency)
{
    AdversaryConfig cfg = armedConfig(AdversaryStrategy::LatencyTuner, 16);
    AdaptiveAdversary adv(cfg, 13);
    EXPECT_EQ(adv.latencyEstimate(), 0u);

    // Only the attacker's own recovered requests are samples.
    adv.observeOutcome(600, outcomeAt(RequestStatus::DetectedRecovered,
                                      100, 600), false);
    EXPECT_EQ(adv.latencyEstimate(), 0u);

    adv.observeOutcome(600, outcomeAt(RequestStatus::DetectedRecovered,
                                      100, 600), true);
    EXPECT_EQ(adv.latencyEstimate(), 500u);

    // EMA with alpha 0.3: 0.7 * 500 + 0.3 * 1500 = 800.
    adv.observeOutcome(2000, outcomeAt(RequestStatus::MacroRecovered,
                                       500, 2000), true);
    EXPECT_EQ(adv.latencyEstimate(), 800u);
}

// ======================================= ablation keys (satellite 2)

TEST(AblationKeys, AdversarySettingsApply)
{
    core::NodeConfig node;
    AdversaryConfig &cfg = node.adversary;
    core::applyNodeSetting(node, "adversary.strategy", "reinfect");
    core::applyNodeSetting(node, "adversary.budget", "128");
    core::applyNodeSetting(node, "adversary.burst", "8");
    core::applyNodeSetting(node, "adversary.gap", "50000");
    core::applyNodeSetting(node, "adversary.reinfect_delay", "2500");
    EXPECT_TRUE(cfg.enabled());
    EXPECT_EQ(cfg.strategy, AdversaryStrategy::Reinfect);
    EXPECT_EQ(cfg.budget, 128u);
    EXPECT_EQ(cfg.burstLen, 8u);
    EXPECT_EQ(cfg.baseGap, 50000u);
    EXPECT_EQ(cfg.reinfectDelay, 2500u);
}

TEST(AblationKeysDeathTest, UnknownKeysDieNamingTheKey)
{
    core::NodeConfig node;
    EXPECT_DEATH(core::applyNodeSetting(node, "adversary.bogus", "1"),
                 "adversary.bogus");
    EXPECT_DEATH(core::applyNodeSetting(node, "rejuvenation.bogus", "1"),
                 "rejuvenation.bogus");
    EXPECT_DEATH(core::applyNodeSetting(node, "resilience.bogus", "1"),
                 "resilience.bogus");
    EXPECT_DEATH(core::applyNodeSetting(node, "typo.budget", "1"),
                 "typo.budget");
}

TEST(AblationKeysDeathTest, MalformedValuesDieNamingTheKey)
{
    core::NodeConfig node;
    EXPECT_DEATH(core::applyNodeSetting(node, "adversary.budget", "12x"),
                 "adversary.budget");
    EXPECT_DEATH(core::applyNodeSetting(node, "adversary.budget", "many"),
                 "adversary.budget");
    EXPECT_DEATH(core::applyNodeSetting(node, "adversary.burst", "0"),
                 "adversary.burst");
    EXPECT_DEATH(core::applyNodeSetting(node, "adversary.strategy",
                                        "sneaky"),
                 "sneaky");
    EXPECT_DEATH(core::applyNodeSetting(node,
                                        "adversary.occupancy_fraction",
                                        "1.5"),
                 "adversary.occupancy_fraction");
    EXPECT_DEATH(core::applyNodeSetting(node, "rejuvenation.period", "0"),
                 "rejuvenation.period");
    EXPECT_DEATH(core::applyNodeSetting(node, "rejuvenation.trigger",
                                        "sometimes"),
                 "sometimes");
}

TEST(AblationKeys, RouterDispatchesByPrefix)
{
    core::NodeConfig node;
    const AdversaryConfig &adv = node.adversary;
    const ResilienceConfig &rc = node.resilience;
    core::applyNodeSettings(node,
                            {"adversary.strategy=probe-burst",
                             "rejuvenation.trigger=suspicion",
                             "resilience.queue_bound=12"});
    EXPECT_EQ(adv.strategy, AdversaryStrategy::ProbeBurst);
    EXPECT_EQ(rc.rejuvenation.trigger, RejuvenationTrigger::Suspicion);
    EXPECT_EQ(rc.queueBound, 12u);
}

TEST(AblationKeysDeathTest, TokenWithoutEqualsDies)
{
    core::NodeConfig node;
    EXPECT_DEATH(core::applyNodeSettings(node, {"adversary.budget"}),
                 "not key=value");
}

// ================================ backoff saturation (satellite 1)

TEST(RetrySaturation, CapAtMaxTickPinsInsteadOfWrapping)
{
    // A cap at the "never" sentinel: backoff pins at maxTick and the
    // jitter must not wrap it around to a tiny delay.
    BackoffPolicy pol;
    pol.base = maxTick;
    pol.cap = maxTick;
    pol.jitterFraction = 0.5;
    RetryScheduler rs(pol, 3);
    for (std::uint32_t attempt = 1; attempt <= 8; ++attempt)
        EXPECT_EQ(rs.delay(attempt), maxTick);
    EXPECT_EQ(rs.scheduled(), 8u);
}

TEST(RetrySaturation, JitterNearTheCeilingNeverWraps)
{
    // Backoff just below maxTick plus a large jitter overflows the
    // raw sum; the delay must saturate, never come back smaller than
    // the backoff itself.
    BackoffPolicy pol;
    pol.base = maxTick - 1000;
    pol.cap = maxTick - 1000;
    pol.jitterFraction = 0.5;
    RetryScheduler rs(pol, 11);
    for (std::uint32_t attempt = 1; attempt <= 64; ++attempt)
        EXPECT_GE(rs.delay(attempt), pol.cap);
}

TEST(RetrySaturation, GrowthSaturatesAtCapWithoutJitter)
{
    // With jitter off the curve is exact: base * mult^(n-1) until the
    // cap, then flat — even when the raw double blows far past 2^64.
    BackoffPolicy pol;
    pol.base = 1000;
    pol.multiplier = 2.0;
    pol.cap = maxTick;
    pol.jitterFraction = 0.0;
    RetryScheduler rs(pol, 5);
    EXPECT_EQ(rs.delay(1), 1000u);
    EXPECT_EQ(rs.delay(2), 2000u);
    EXPECT_EQ(rs.delay(3), 4000u);
    for (std::uint32_t attempt = 80; attempt <= 90; ++attempt)
        EXPECT_EQ(rs.delay(attempt), maxTick);
}

// ========================= proactive health paths (satellite 3)

TEST(HealthProactive, RestorePreemptsQuarantinedRollback)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 100);
    h.observeOutcome(attackDetected(), 0, 200); // Degraded
    h.observeOutcome(attackDetected(), 0, 300); // Quarantined
    ASSERT_EQ(h.state(), HealthState::Quarantined);

    h.noteProactiveRestore(400);
    EXPECT_EQ(h.state(), HealthState::Rejuvenating);
    EXPECT_TRUE(h.probeOnly());

    // Failures keep it Rejuvenating; a serve confirms the rebirth,
    // and the walk counts as a full revival cycle.
    h.observeOutcome(attackDetected(), 0, 500);
    EXPECT_EQ(h.state(), HealthState::Rejuvenating);
    h.observeOutcome(served(), 0, 600);
    EXPECT_EQ(h.state(), HealthState::Healthy);
    EXPECT_EQ(h.fullCycles(), 1u);
}

TEST(HealthProactive, RestoreResetsStreakLedger)
{
    // The reborn service owes nothing to its predecessor's record:
    // pre-restore failures must not count toward quarantine, and
    // pre-restore serves must not count toward healing.
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 100); // failStreak 1
    h.noteProactiveRestore(200);
    h.observeOutcome(served(), 0, 300); // confirms: Healthy
    ASSERT_EQ(h.state(), HealthState::Healthy);

    // One violation after the restore is below degradeViolations
    // again only if the counter was reset by the Healthy entry.
    h.observeOutcome(attackDetected(), 0, 400);
    EXPECT_EQ(h.state(), HealthState::Healthy);
    h.observeOutcome(attackDetected(), 0, 500);
    EXPECT_EQ(h.state(), HealthState::Degraded);
}

TEST(HealthProactive, BackToBackFullCyclesCountIndividually)
{
    // Two complete revival cycles, the second driven proactively:
    // probe accounting (confirmation serves) must not leak between
    // cycles and each walk increments fullCycles exactly once.
    HealthMonitor h(healthConfig());
    for (int cycle = 0; cycle < 2; ++cycle) {
        Tick base = 1000 * (cycle + 1);
        h.observeOutcome(attackDetected(), 0, base + 1);
        h.observeOutcome(attackDetected(), 0, base + 2);
        ASSERT_EQ(h.state(), HealthState::Degraded);
        h.observeOutcome(attackDetected(), 0, base + 3);
        ASSERT_EQ(h.state(), HealthState::Quarantined);
        if (cycle == 0) {
            RequestOutcome rej;
            rej.status = RequestStatus::Rejuvenated;
            h.observeOutcome(rej, 0, base + 4);
        } else {
            h.noteProactiveRestore(base + 4);
        }
        ASSERT_EQ(h.state(), HealthState::Rejuvenating);
        // The first probe of the reborn service fails; the ladder
        // keeps it Rejuvenating until one is actually served.
        h.observeOutcome(attackDetected(), 0, base + 5);
        ASSERT_EQ(h.state(), HealthState::Rejuvenating);
        h.observeOutcome(served(), 0, base + 6);
        ASSERT_EQ(h.state(), HealthState::Healthy);
        EXPECT_EQ(h.fullCycles(), static_cast<std::uint64_t>(cycle + 1));
    }
    EXPECT_EQ(h.fullCycles(), 2u);
}

TEST(HealthProactive, DegradedReEntryMidSlowStart)
{
    // Degraded, partway through the heal streak, an escalation sends
    // the service to Quarantined — and the next heal attempt must
    // start its serve streak from zero.
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 100);
    h.observeOutcome(attackDetected(), 0, 200);
    ASSERT_EQ(h.state(), HealthState::Degraded);

    h.observeOutcome(served(), 0, 300);
    h.observeOutcome(served(), 0, 400); // 2 of 3: mid slow-start
    ASSERT_EQ(h.state(), HealthState::Degraded);

    RequestOutcome esc;
    esc.status = RequestStatus::MacroRecovered;
    h.observeOutcome(esc, 0, 500); // escalation preempts the heal
    ASSERT_EQ(h.state(), HealthState::Quarantined);

    h.observeOutcome(served(), 0, 600); // probe served: re-admission
    ASSERT_EQ(h.state(), HealthState::Degraded);
    h.observeOutcome(served(), 0, 700);
    h.observeOutcome(served(), 0, 800);
    // Serve streak restarted at the probe: 3 total since quarantine.
    EXPECT_EQ(h.state(), HealthState::Healthy);
}

// ======================================= rejuvenation policy

TEST(RejuvenationPolicy, PeriodicFiresOnServiceTime)
{
    RejuvenationConfig cfg;
    cfg.trigger = RejuvenationTrigger::Periodic;
    cfg.period = 1000;
    cfg.cooldown = 400;
    RejuvenationPolicy pol(cfg);
    EXPECT_FALSE(pol.due(999));
    EXPECT_TRUE(pol.due(1000));
    pol.noteRestored(1000);
    EXPECT_EQ(pol.restoresFired(), 1u);
    // Next due a full period after the restore; the cooldown is the
    // floor between consecutive restores.
    EXPECT_FALSE(pol.due(1999));
    EXPECT_TRUE(pol.due(2000));
}

TEST(RejuvenationPolicy, EpochCountsMacroCheckpoints)
{
    RejuvenationConfig cfg;
    cfg.trigger = RejuvenationTrigger::Epoch;
    cfg.epochLimit = 3;
    cfg.cooldown = 0;
    RejuvenationPolicy pol(cfg);
    pol.noteEpoch();
    pol.noteEpoch();
    EXPECT_FALSE(pol.due(100));
    pol.noteEpoch();
    EXPECT_TRUE(pol.due(100));
    pol.noteRestored(100);
    EXPECT_EQ(pol.epochsSinceRestore(), 0u);
    EXPECT_FALSE(pol.due(200));
}

TEST(RejuvenationPolicy, SuspicionScoresAndDecays)
{
    RejuvenationConfig cfg;
    cfg.trigger = RejuvenationTrigger::Suspicion;
    cfg.suspicionThreshold = 5.0;
    cfg.suspicionDecay = 1.0;
    cfg.cooldown = 0;
    RejuvenationPolicy pol(cfg);

    // violation + failure = 3 points; a serve decays 1.
    pol.noteOutcome(attackDetected(), 0);
    EXPECT_DOUBLE_EQ(pol.suspicion(), 3.0);
    pol.noteOutcome(served(), 0);
    EXPECT_DOUBLE_EQ(pol.suspicion(), 2.0);
    EXPECT_FALSE(pol.due(50));

    // Corruption is the heaviest tell: 3 (corruption) + 1 (failure).
    RequestOutcome crash;
    crash.status = RequestStatus::CrashedRecovered;
    pol.noteOutcome(crash, 1);
    EXPECT_DOUBLE_EQ(pol.suspicion(), 6.0);
    EXPECT_TRUE(pol.due(60));
    pol.noteRestored(60);
    EXPECT_DOUBLE_EQ(pol.suspicion(), 0.0);

    // Sheds never reach the service: no score either way.
    RequestOutcome shed;
    shed.status = RequestStatus::Shed;
    pol.noteOutcome(shed, 0);
    EXPECT_DOUBLE_EQ(pol.suspicion(), 0.0);

    // Queue pressure is a weak tell on its own.
    pol.noteQueuePressure();
    EXPECT_DOUBLE_EQ(pol.suspicion(), 0.5);
}

TEST(RejuvenationPolicy, CooldownGatesRepeatRestores)
{
    RejuvenationConfig cfg;
    cfg.trigger = RejuvenationTrigger::Epoch;
    cfg.epochLimit = 1;
    cfg.cooldown = 1000;
    RejuvenationPolicy pol(cfg);
    pol.noteEpoch();
    EXPECT_TRUE(pol.due(10));
    pol.noteRestored(10);
    pol.noteEpoch(); // due again immediately by count...
    EXPECT_FALSE(pol.due(500)); // ...but inside the cooldown
    EXPECT_TRUE(pol.due(1010));
}

TEST(RejuvenationPolicy, DisarmedIsNeverDue)
{
    RejuvenationConfig cfg; // trigger = None
    EXPECT_FALSE(cfg.enabled());
    RejuvenationPolicy pol(cfg);
    pol.noteEpoch();
    pol.noteOutcome(attackDetected(), 1);
    pol.noteQueuePressure();
    EXPECT_FALSE(pol.due(maxTick));
}
