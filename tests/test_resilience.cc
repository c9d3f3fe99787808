/**
 * @file
 * Tests for the overload-resilience layer: admission control, the
 * health state machine, monitor-saturation backpressure, client
 * backoff, and the determinism contract of the storm workload.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/node_handle.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "net/daemon_profile.hh"
#include "net/request.hh"
#include "resilience/admission.hh"
#include "resilience/backpressure.hh"
#include "resilience/guard.hh"
#include "resilience/health.hh"
#include "resilience/resilience_config.hh"
#include "resilience/retry.hh"
#include "resilience/storm.hh"

using namespace indra;
using namespace indra::resilience;
using net::ClientClass;
using net::RequestOutcome;
using net::RequestStatus;
using net::ShedReason;

namespace
{

RequestOutcome
outcome(RequestStatus st,
        mon::Violation viol = mon::Violation::None)
{
    RequestOutcome o;
    o.status = st;
    o.violation = viol;
    return o;
}

RequestOutcome
served()
{
    return outcome(RequestStatus::Served);
}

RequestOutcome
attackDetected()
{
    return outcome(RequestStatus::DetectedRecovered,
                   mon::Violation::StackSmash);
}

} // anonymous namespace

// ===================================================== configuration

TEST(ResilienceConfig, DefaultIsDisarmed)
{
    ResilienceConfig rc;
    EXPECT_FALSE(rc.enabled());
    EXPECT_EQ(rc.describe(), "off");
}

TEST(ResilienceConfig, EachKnobArms)
{
    {
        ResilienceConfig rc;
        rc.queueBound = 8;
        EXPECT_TRUE(rc.enabled());
    }
    {
        ResilienceConfig rc;
        rc.fifoHighWater = 32;
        EXPECT_TRUE(rc.enabled());
    }
    {
        ResilienceConfig rc;
        rc.resourcePressurePages = 100;
        EXPECT_TRUE(rc.enabled());
    }
    {
        ResilienceConfig rc;
        rc.tokensPerMCycle[static_cast<std::size_t>(
            ClientClass::Bulk)] = 5.0;
        EXPECT_TRUE(rc.enabled());
    }
}

TEST(ResilienceConfig, LowWaterDefaultsToHalfHighWater)
{
    ResilienceConfig rc;
    rc.fifoHighWater = 48;
    EXPECT_EQ(rc.effectiveLowWater(), 24u);
    rc.fifoLowWater = 5;
    EXPECT_EQ(rc.effectiveLowWater(), 5u);
}

// ====================================================== token bucket

TEST(TokenBucket, StartsFullAndCapsAtBurst)
{
    TokenBucket b(10.0, 3.0);
    EXPECT_DOUBLE_EQ(b.tokens(), 3.0);
    b.advance(10'000'000); // plenty of time: still capped at depth
    EXPECT_DOUBLE_EQ(b.tokens(), 3.0);
}

TEST(TokenBucket, RefillsWithSimulatedTime)
{
    TokenBucket b(10.0, 3.0); // 10 tokens per Mcycle
    EXPECT_TRUE(b.tryTake(0, 1.0));
    EXPECT_TRUE(b.tryTake(0, 1.0));
    EXPECT_TRUE(b.tryTake(0, 1.0));
    EXPECT_FALSE(b.tryTake(0, 1.0)); // empty at tick 0
    // 100k cycles at 10/Mcycle = 1 token back.
    EXPECT_TRUE(b.tryTake(100'000, 1.0));
    EXPECT_FALSE(b.tryTake(100'000, 1.0));
}

TEST(TokenBucket, TimeNeverRunsBackwards)
{
    TokenBucket b(10.0, 2.0);
    EXPECT_TRUE(b.tryTake(100'000, 1.0));
    EXPECT_TRUE(b.tryTake(100'000, 1.0));
    // An out-of-order earlier tick must not mint tokens.
    EXPECT_FALSE(b.tryTake(50'000, 1.0));
}

TEST(TokenBucket, DegradedScalePaysDouble)
{
    TokenBucket b(1.0, 2.0);
    // scale 0.5 -> cost 2: the full bucket covers exactly one take.
    EXPECT_TRUE(b.tryTake(0, 0.5));
    EXPECT_FALSE(b.tryTake(0, 0.5));
    EXPECT_FALSE(b.tryTake(0, 1.0)); // and nothing left for cost 1
}

TEST(TokenBucket, ZeroRateNeverLimits)
{
    TokenBucket b(0.0, 0.0);
    EXPECT_FALSE(b.limiting());
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(b.tryTake(0, 0.5));
}

// ================================================= admission control

TEST(Admission, UnboundedConfigAdmitsEverything)
{
    ResilienceConfig rc;
    AdmissionController adm(rc);
    for (std::size_t depth = 0; depth < 100; depth += 10) {
        auto d = adm.decide(0, ClientClass::Standard, depth, 1.0,
                            false, unlimitedWindow);
        EXPECT_TRUE(d.admitted);
    }
    EXPECT_EQ(adm.shedTotal(), 0u);
}

TEST(Admission, QueueBoundBoundary)
{
    ResilienceConfig rc;
    rc.queueBound = 8;
    AdmissionController adm(rc);
    // depth == bound - 1: admitted (the request takes the last slot).
    EXPECT_TRUE(adm.decide(0, ClientClass::Standard, 7, 1.0, false,
                           unlimitedWindow).admitted);
    // depth == bound: full.
    auto d = adm.decide(0, ClientClass::Standard, 8, 1.0, false,
                        unlimitedWindow);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, ShedReason::QueueFull);
    // depth == bound + 1 (late sample): still full.
    EXPECT_FALSE(adm.decide(0, ClientClass::Standard, 9, 1.0, false,
                            unlimitedWindow).admitted);
    EXPECT_EQ(adm.shedBy(ShedReason::QueueFull), 2u);
}

TEST(Admission, DegradedScaleHalvesBound)
{
    ResilienceConfig rc;
    rc.queueBound = 8;
    AdmissionController adm(rc);
    EXPECT_EQ(adm.effectiveBound(1.0), 8u);
    EXPECT_EQ(adm.effectiveBound(0.5), 4u);
    EXPECT_TRUE(adm.decide(0, ClientClass::Standard, 3, 0.5, false,
                           unlimitedWindow).admitted);
    EXPECT_FALSE(adm.decide(0, ClientClass::Standard, 4, 0.5, false,
                            unlimitedWindow).admitted);
}

TEST(Admission, EffectiveBoundNeverScalesToZero)
{
    ResilienceConfig rc;
    rc.queueBound = 1;
    AdmissionController adm(rc);
    EXPECT_EQ(adm.effectiveBound(0.5), 1u);
}

TEST(Admission, QuarantineAdmitsOnlyProbes)
{
    ResilienceConfig rc;
    rc.queueBound = 8;
    AdmissionController adm(rc);
    auto d = adm.decide(0, ClientClass::Standard, 0, 1.0, true,
                        unlimitedWindow);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, ShedReason::Quarantined);
    EXPECT_FALSE(adm.decide(0, ClientClass::Bulk, 0, 1.0, true,
                            unlimitedWindow).admitted);
    EXPECT_TRUE(adm.decide(0, ClientClass::Probe, 0, 1.0, true,
                           unlimitedWindow).admitted);
}

TEST(Admission, BackpressureWindowBeatsQueueBound)
{
    ResilienceConfig rc;
    rc.queueBound = 8;
    AdmissionController adm(rc);
    // Window of 1: depth 1 is refused as Backpressure even though
    // the queue bound would still admit it.
    auto d = adm.decide(0, ClientClass::Standard, 1, 1.0, false, 1);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, ShedReason::Backpressure);
    EXPECT_TRUE(adm.decide(0, ClientClass::Standard, 0, 1.0, false, 1)
                    .admitted);
}

TEST(Admission, QuarantineBeatsBackpressure)
{
    ResilienceConfig rc;
    rc.queueBound = 8;
    AdmissionController adm(rc);
    auto d = adm.decide(0, ClientClass::Standard, 5, 1.0, true, 1);
    EXPECT_EQ(d.reason, ShedReason::Quarantined);
}

TEST(Admission, RateLimiterRunsLast)
{
    ResilienceConfig rc;
    rc.queueBound = 4;
    std::size_t bulk = static_cast<std::size_t>(ClientClass::Bulk);
    rc.tokensPerMCycle[bulk] = 1.0;
    rc.tokenBurst[bulk] = 1.0;
    AdmissionController adm(rc);
    // First bulk request drains the bucket; the second is refused
    // for rate, not queue, reasons.
    EXPECT_TRUE(adm.decide(0, ClientClass::Bulk, 0, 1.0, false,
                           unlimitedWindow).admitted);
    auto d = adm.decide(0, ClientClass::Bulk, 0, 1.0, false,
                        unlimitedWindow);
    EXPECT_EQ(d.reason, ShedReason::RateLimited);
    // A queue-full refusal must not consume tokens: after a long
    // refill the bucket covers exactly one more admission.
    EXPECT_FALSE(adm.decide(2'000'000, ClientClass::Bulk, 4, 1.0,
                            false, unlimitedWindow).admitted);
    EXPECT_TRUE(adm.decide(2'000'000, ClientClass::Bulk, 0, 1.0,
                           false, unlimitedWindow).admitted);
    // Standard class has no bucket configured: unlimited.
    EXPECT_TRUE(adm.decide(0, ClientClass::Standard, 0, 1.0, false,
                           unlimitedWindow).admitted);
}

// ======================================================= backpressure

TEST(Backpressure, DisabledWithoutHighWater)
{
    ResilienceConfig rc;
    BackpressureGovernor bp(rc);
    bp.sample(1'000'000);
    EXPECT_FALSE(bp.engaged());
    EXPECT_EQ(bp.window(), unlimitedWindow);
}

TEST(Backpressure, EngagesExactlyAtHighWater)
{
    ResilienceConfig rc;
    rc.fifoHighWater = 48;
    BackpressureGovernor bp(rc);
    bp.sample(47); // high water - 1: still off
    EXPECT_FALSE(bp.engaged());
    EXPECT_EQ(bp.window(), unlimitedWindow);
    bp.sample(48); // the boundary itself backpressures
    EXPECT_TRUE(bp.engaged());
    EXPECT_EQ(bp.window(), 1u);
    EXPECT_EQ(bp.engagements(), 1u);
    bp.sample(49); // above: no double count
    EXPECT_EQ(bp.engagements(), 1u);
}

TEST(Backpressure, SlowStartDoublesPerServedRequest)
{
    ResilienceConfig rc;
    rc.fifoHighWater = 48;
    rc.queueBound = 8;
    BackpressureGovernor bp(rc);
    bp.sample(48);
    EXPECT_EQ(bp.window(), 1u);
    // Still saturated above low water (24): serves don't grow it.
    bp.sample(30);
    bp.noteServed();
    EXPECT_EQ(bp.window(), 1u);
    // Drained to the low-water mark: slow start begins.
    bp.sample(24);
    bp.noteServed();
    EXPECT_EQ(bp.window(), 2u);
    bp.noteServed();
    EXPECT_EQ(bp.window(), 4u);
    bp.noteServed(); // 4 >= 8/2+1? no: 4 < 5 -> 8... (4*2 == bound)
    EXPECT_TRUE(bp.window() == 8u || !bp.engaged());
    bp.noteServed();
    EXPECT_FALSE(bp.engaged());
    EXPECT_EQ(bp.window(), unlimitedWindow);
}

TEST(Backpressure, ResaturationMidRampRepins)
{
    ResilienceConfig rc;
    rc.fifoHighWater = 48;
    rc.queueBound = 8;
    BackpressureGovernor bp(rc);
    bp.sample(48);
    bp.sample(24);
    bp.noteServed();
    EXPECT_EQ(bp.window(), 2u);
    bp.sample(48); // saturates again mid slow-start
    EXPECT_EQ(bp.window(), 1u);
    EXPECT_EQ(bp.engagements(), 2u);
}

// ================================================ health state machine

namespace
{

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

} // anonymous namespace

TEST(Health, StartsHealthyWithFullBudget)
{
    HealthMonitor h(healthConfig());
    EXPECT_EQ(h.state(), HealthState::Healthy);
    EXPECT_DOUBLE_EQ(h.admissionScale(), 1.0);
    EXPECT_FALSE(h.probeOnly());
    EXPECT_EQ(h.transitions(), 0u);
}

TEST(Health, ViolationsDegrade)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 100);
    EXPECT_EQ(h.state(), HealthState::Healthy); // 1 < degradeViolations
    h.observeOutcome(attackDetected(), 0, 200);
    EXPECT_EQ(h.state(), HealthState::Degraded);
    EXPECT_DOUBLE_EQ(h.admissionScale(), 0.5);
}

TEST(Health, FailuresWithoutViolationsDoNotDegrade)
{
    HealthMonitor h(healthConfig());
    for (int i = 0; i < 10; ++i)
        h.observeOutcome(outcome(RequestStatus::CrashedRecovered),
                         0, 100 * i);
    // No monitor violation, no escalation: plain crashes alone leave
    // a Healthy service Healthy (the ladder is absorbing them).
    EXPECT_EQ(h.state(), HealthState::Healthy);
}

TEST(Health, EscalationDegradesImmediately)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(outcome(RequestStatus::MacroRecovered), 0, 50);
    EXPECT_EQ(h.state(), HealthState::Degraded);
}

TEST(Health, CorruptionDetectionDegradesImmediately)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(outcome(RequestStatus::CrashedRecovered), 1, 50);
    EXPECT_EQ(h.state(), HealthState::Degraded);
}

TEST(Health, FailStreakQuarantines)
{
    HealthMonitor h(healthConfig());
    // One outcome drives at most one transition: the second failure
    // degrades (violations reach 2), and only the next failure is
    // evaluated against the Degraded rules.
    h.observeOutcome(attackDetected(), 0, 100);
    h.observeOutcome(attackDetected(), 0, 200);
    EXPECT_EQ(h.state(), HealthState::Degraded);
    h.observeOutcome(attackDetected(), 0, 300); // streak 3 >= 2
    EXPECT_EQ(h.state(), HealthState::Quarantined);
    EXPECT_TRUE(h.probeOnly());
}

TEST(Health, ServedStreakResetsFailStreak)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 100);
    h.observeOutcome(served(), 0, 150); // streak broken
    h.observeOutcome(attackDetected(), 0, 200);
    EXPECT_EQ(h.state(), HealthState::Degraded); // violations 2
    h.observeOutcome(served(), 0, 250);
    h.observeOutcome(attackDetected(), 0, 300); // streak 1 of 2
    EXPECT_EQ(h.state(), HealthState::Degraded);
}

TEST(Health, HealStreakRecovers)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(outcome(RequestStatus::MacroRecovered), 0, 50);
    EXPECT_EQ(h.state(), HealthState::Degraded);
    h.observeOutcome(served(), 0, 100);
    h.observeOutcome(served(), 0, 200);
    EXPECT_EQ(h.state(), HealthState::Degraded); // 2 < healServedStreak
    h.observeOutcome(served(), 0, 300);
    EXPECT_EQ(h.state(), HealthState::Healthy);
    EXPECT_EQ(h.fullCycles(), 0u); // never reached Rejuvenating
}

TEST(Health, QuarantineLeavesThroughDegraded)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 100);
    h.observeOutcome(attackDetected(), 0, 200);
    h.observeOutcome(attackDetected(), 0, 300);
    ASSERT_EQ(h.state(), HealthState::Quarantined);
    h.observeOutcome(served(), 0, 400); // a probe got through
    EXPECT_EQ(h.state(), HealthState::Degraded);
}

TEST(Health, RejuvenatedEntersRejuvenatingFromAnyState)
{
    for (int depth = 0; depth < 3; ++depth) {
        HealthMonitor h(healthConfig());
        if (depth >= 1)
            h.observeOutcome(attackDetected(), 0, 10);
        if (depth >= 2)
            h.observeOutcome(attackDetected(), 0, 20);
        h.observeOutcome(outcome(RequestStatus::Rejuvenated), 0, 100);
        EXPECT_EQ(h.state(), HealthState::Rejuvenating)
            << "from depth " << depth;
        EXPECT_TRUE(h.probeOnly());
    }
}

TEST(Health, FullCycleCountsOnlyCompleteWalks)
{
    HealthMonitor h(healthConfig());
    // Healthy -> Degraded -> Quarantined -> Rejuvenating -> Healthy.
    h.observeOutcome(attackDetected(), 0, 100);
    h.observeOutcome(attackDetected(), 0, 200);
    h.observeOutcome(attackDetected(), 0, 300);
    ASSERT_EQ(h.state(), HealthState::Quarantined);
    h.observeOutcome(outcome(RequestStatus::Rejuvenated), 0, 350);
    ASSERT_EQ(h.state(), HealthState::Rejuvenating);
    EXPECT_EQ(h.fullCycles(), 0u);
    h.observeOutcome(served(), 0, 400);
    EXPECT_EQ(h.state(), HealthState::Healthy);
    EXPECT_EQ(h.fullCycles(), 1u);

    // A shallow dip (Degraded and straight back) adds no cycle.
    h.observeOutcome(outcome(RequestStatus::MacroRecovered), 0, 500);
    h.observeOutcome(served(), 0, 600);
    h.observeOutcome(served(), 0, 700);
    h.observeOutcome(served(), 0, 800);
    EXPECT_EQ(h.state(), HealthState::Healthy);
    EXPECT_EQ(h.fullCycles(), 1u);
}

TEST(Health, RejuvenationShortcutSkippingQuarantineIsNotAFullCycle)
{
    HealthMonitor h(healthConfig());
    // Healthy -> Degraded -> Rejuvenating -> Healthy: quarantine was
    // never reached, so no full revival cycle is credited.
    h.observeOutcome(outcome(RequestStatus::MacroRecovered), 0, 100);
    ASSERT_EQ(h.state(), HealthState::Degraded);
    h.observeOutcome(outcome(RequestStatus::Rejuvenated), 0, 200);
    ASSERT_EQ(h.state(), HealthState::Rejuvenating);
    h.observeOutcome(served(), 0, 300);
    EXPECT_EQ(h.state(), HealthState::Healthy);
    EXPECT_EQ(h.fullCycles(), 0u);
}

TEST(Health, QueuePressureDegradesOnlyHealthy)
{
    HealthMonitor h(healthConfig());
    h.noteQueuePressure(100);
    EXPECT_EQ(h.state(), HealthState::Degraded);
    h.observeOutcome(attackDetected(), 0, 200);
    h.observeOutcome(attackDetected(), 0, 300);
    ASSERT_EQ(h.state(), HealthState::Quarantined);
    h.noteQueuePressure(400); // must not yank it back to Degraded
    EXPECT_EQ(h.state(), HealthState::Quarantined);
}

TEST(Health, ResourcePressureDegrades)
{
    HealthMonitor h(healthConfig());
    h.noteResourcePressure(100);
    EXPECT_EQ(h.state(), HealthState::Degraded);
}

TEST(Health, TimeAccountingSumsToFinalizeTick)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(attackDetected(), 0, 1000);
    h.observeOutcome(attackDetected(), 0, 3000); // Degraded at 3000
    h.finalize(10'000);
    EXPECT_EQ(h.timeIn(HealthState::Healthy), 3000u);
    EXPECT_EQ(h.timeIn(HealthState::Degraded), 7000u);
    Cycles total = 0;
    for (std::size_t s = 0; s < healthStateCount; ++s)
        total += h.timeIn(static_cast<HealthState>(s));
    EXPECT_EQ(total, 10'000u);
}

TEST(Health, OutOfOrderEventTicksClampInsteadOfWrapping)
{
    HealthMonitor h(healthConfig());
    h.observeOutcome(outcome(RequestStatus::MacroRecovered), 0, 5000);
    ASSERT_EQ(h.state(), HealthState::Degraded); // entered at 5000
    // Admission-side events can carry ticks behind the core clock;
    // a transition "at" 4000 must clamp to the last transition tick
    // instead of wrapping the unsigned residency subtraction.
    h.observeOutcome(attackDetected(), 0, 4000); // streak 2: quarantine
    ASSERT_EQ(h.state(), HealthState::Quarantined);
    h.finalize(5000);
    EXPECT_EQ(h.timeIn(HealthState::Healthy), 5000u);
    EXPECT_EQ(h.timeIn(HealthState::Degraded), 0u);
    EXPECT_EQ(h.timeIn(HealthState::Quarantined), 0u);
}

TEST(Health, TransitionLogIsBounded)
{
    ResilienceConfig rc = healthConfig();
    rc.healServedStreak = 1;
    HealthMonitor h(rc);
    // Thrash Healthy <-> Degraded far past the log limit.
    for (std::size_t i = 0; i < HealthMonitor::logLimit; ++i) {
        h.observeOutcome(outcome(RequestStatus::MacroRecovered), 0,
                         10 * i);
        h.observeOutcome(served(), 0, 10 * i + 5);
    }
    EXPECT_EQ(h.transitionLog().size(), HealthMonitor::logLimit);
    // The machine keeps running correctly after the log fills.
    EXPECT_EQ(h.state(), HealthState::Healthy);
}

// ====================================================== client retry

TEST(Retry, SameSeedSameSchedule)
{
    BackoffPolicy pol;
    RetryScheduler a(pol, 42), b(pol, 42);
    for (std::uint32_t attempt = 1; attempt <= 8; ++attempt)
        EXPECT_EQ(a.delay(attempt), b.delay(attempt));
    EXPECT_EQ(a.scheduled(), 8u);
}

TEST(Retry, DifferentSeedsDiffer)
{
    BackoffPolicy pol;
    RetryScheduler a(pol, 1), b(pol, 2);
    bool any_differ = false;
    for (std::uint32_t attempt = 1; attempt <= 8; ++attempt)
        any_differ |= a.delay(attempt) != b.delay(attempt);
    EXPECT_TRUE(any_differ);
}

TEST(Retry, DelayStaysWithinJitterBounds)
{
    BackoffPolicy pol;
    pol.base = 1000;
    pol.multiplier = 2.0;
    pol.cap = 8000;
    pol.jitterFraction = 0.5;
    RetryScheduler r(pol, 7);
    for (std::uint32_t attempt = 1; attempt <= 10; ++attempt) {
        Cycles backoff = attempt >= 4
            ? pol.cap
            : Cycles(1000) << (attempt - 1);
        Cycles d = r.delay(attempt);
        EXPECT_GE(d, backoff) << "attempt " << attempt;
        EXPECT_LT(d, backoff + backoff / 2) << "attempt " << attempt;
    }
}

TEST(Retry, NoJitterIsExactExponential)
{
    BackoffPolicy pol;
    pol.base = 100;
    pol.multiplier = 3.0;
    pol.cap = 10'000;
    pol.jitterFraction = 0.0;
    RetryScheduler r(pol, 7);
    EXPECT_EQ(r.delay(1), 100u);
    EXPECT_EQ(r.delay(2), 300u);
    EXPECT_EQ(r.delay(3), 900u);
    EXPECT_EQ(r.delay(4), 2700u);
    EXPECT_EQ(r.delay(5), 8100u);
    EXPECT_EQ(r.delay(6), 10'000u); // capped
}

TEST(Retry, MayRetryHonorsMaxAttempts)
{
    BackoffPolicy pol;
    pol.maxAttempts = 4;
    RetryScheduler r(pol, 1);
    EXPECT_TRUE(r.mayRetry(1));
    EXPECT_TRUE(r.mayRetry(3));
    EXPECT_FALSE(r.mayRetry(4));
}

// ======================================================== percentile

TEST(Percentile, NearestRank)
{
    std::vector<Cycles> s{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
    EXPECT_EQ(percentile(s, 50), 50u);
    EXPECT_EQ(percentile(s, 99), 100u);
    EXPECT_EQ(percentile(s, 0), 10u);
    EXPECT_EQ(percentile(s, 100), 100u);
    EXPECT_EQ(percentile({}, 50), 0u);
    EXPECT_EQ(percentile({7}, 99), 7u);
}

// ==================================== guard wiring and the storm loop

namespace
{

SystemConfig
stormSystemConfig()
{
    SystemConfig cfg;
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    return cfg;
}

ResilienceConfig
stormResilienceConfig()
{
    ResilienceConfig rc;
    rc.queueBound = 6;
    rc.fifoHighWater = 48;
    rc.degradeViolations = 2;
    rc.quarantineFailStreak = 2;
    rc.healServedStreak = 3;
    return rc;
}

StormPlan
smallStorm()
{
    StormPlan plan;
    plan.seed = 3;
    plan.legitRequests = 25;
    plan.legitRatePerMCycle = 1.0;
    plan.attackRatePerMCycle = 2.0;
    plan.burstLen = 4;
    plan.deadline = 3'000'000;
    plan.probePeriod = 50'000;
    return plan;
}

StormReport
runSmallStorm(const ResilienceConfig &rc)
{
    core::IndraSystem sys(core::NodeConfig{stormSystemConfig(), {}, rc});
    sys.boot();
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25'000;
    std::size_t slot = sys.deployService(profile);
    return core::runStorm(sys, slot, smallStorm());
}

} // anonymous namespace

TEST(Guard, DisarmedConfigCreatesNoGuard)
{
    core::IndraSystem sys(core::NodeConfig{stormSystemConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(net::daemonByName("httpd"));
    EXPECT_EQ(sys.slot(slot).guard, nullptr);
    EXPECT_FALSE(sys.resilienceConfig().enabled());
}

TEST(Guard, ArmedConfigCreatesGuard)
{
    core::IndraSystem sys(core::NodeConfig{stormSystemConfig(), {},
                                           stormResilienceConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(net::daemonByName("httpd"));
    ASSERT_NE(sys.slot(slot).guard, nullptr);
    EXPECT_EQ(sys.slot(slot).guard->config().queueBound, 6u);
}

TEST(Storm, RerunIsBitIdentical)
{
    StormReport a = runSmallStorm(stormResilienceConfig());
    StormReport b = runSmallStorm(stormResilienceConfig());
    EXPECT_EQ(a, b);
    // And the storm did something worth reproducing.
    EXPECT_GT(a.legitServed, 0u);
    EXPECT_GT(a.attackArrivals, 0u);
}

TEST(Storm, ShedAdmitSequenceIdenticalAcrossSweepJobs)
{
    // The acceptance gate: the same four storm cells, swept serially
    // and with a thread pool, must produce byte-identical reports.
    auto run_cells = [](unsigned jobs) {
        harness::ParallelSweep sweep(jobs);
        return sweep.run(4, [](std::size_t i) {
            ResilienceConfig rc = stormResilienceConfig();
            rc.queueBound = 4 + static_cast<std::uint32_t>(i) * 2;
            return runSmallStorm(rc);
        });
    };
    auto serial = run_cells(1);
    auto threaded = run_cells(4);
    EXPECT_EQ(serial, threaded);
}

TEST(Storm, BoundedQueueShedsUnderAttackAndReportsTyped)
{
    StormReport rep = runSmallStorm(stormResilienceConfig());
    EXPECT_GT(rep.shedTotal(), 0u);
    // Typed sheds only: nothing may land in the None bucket.
    EXPECT_EQ(rep.sheds[static_cast<std::size_t>(ShedReason::None)],
              0u);
    // Conservation: every legit arrival is served, failed, gave up,
    // or still counted in a shed that got retried. Goodput never
    // exceeds offered load.
    EXPECT_LE(rep.legitServed + rep.legitFailed + rep.legitGaveUp,
              rep.legitArrivals);
    EXPECT_GT(rep.goodput(), 0.0);
    EXPECT_GE(rep.rawThroughput(), rep.goodput());
}
