/** @file Tests for the differential-oracle checking layer: golden
 * reference models held against the production components, the
 * invariant registry, scenario JSON round-trips and malformed-input
 * robustness, the shrinker, and the end-to-end oracle including
 * its own sensitivity (a planted rollback bug must be caught and
 * shrunk to a small reproducer that fails identically on any sweep
 * worker count). */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "check/invariants.hh"
#include "check/ref_models.hh"
#include "check/scenario.hh"
#include "checkpoint/policy.hh"
#include "core/system.hh"
#include "faults/fault_plan.hh"
#include "harness/parallel_sweep.hh"
#include "net/daemon_profile.hh"
#include "net/workload.hh"
#include "mem/trace_fifo.hh"
#include "obs/trace_log.hh"
#include "rca/reproducer.hh"
#include "resilience/admission.hh"
#include "resilience/health.hh"
#include "sim/random.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

constexpr Addr pageBase = 0x10000000;

} // anonymous namespace

// ---------------------------------------------------------- RefMemory

TEST(RefMemory, CaptureCompareAndFirstMismatch)
{
    check::RefMemory ref(4096);
    std::vector<std::uint8_t> page(4096, 0xab);
    ref.capturePage(5, page);
    EXPECT_EQ(ref.pageCount(), 1u);
    EXPECT_FALSE(ref.comparePage(5, page).has_value());
    // A never-captured vpn has nothing to diverge from.
    EXPECT_FALSE(ref.comparePage(9, page).has_value());

    auto bad = page;
    bad[100] = 0x11;
    bad[200] = 0x22;
    auto mm = ref.comparePage(5, bad);
    ASSERT_TRUE(mm.has_value());
    EXPECT_EQ(mm->vpn, 5u);
    EXPECT_EQ(mm->offset, 100u);
    EXPECT_EQ(mm->expect, 0xab);
    EXPECT_EQ(mm->actual, 0x11);
    EXPECT_NE(mm->describe().find("0x64"), std::string::npos);
}

TEST(RefMemory, ShadowWritesAreLittleEndianAndZeroFill)
{
    check::RefMemory ref(4096);
    ref.write(5 * 4096 + 8, 0x1122334455667788ull, 8);
    EXPECT_EQ(ref.read(5 * 4096 + 8, 8), 0x1122334455667788ull);
    EXPECT_EQ(ref.read(5 * 4096 + 8, 1), 0x88u);
    EXPECT_EQ(ref.read(5 * 4096 + 9, 1), 0x77u);
    // Uncaptured pages read as zero.
    EXPECT_EQ(ref.read(7 * 4096, 8), 0u);
    // The shadow write materialized the page.
    EXPECT_EQ(ref.pageCount(), 1u);
    EXPECT_EQ(ref.read(5 * 4096, 8), 0u);
}

// ------------------------------------------------------------ RefFifo

TEST(RefFifo, MatchesTraceFifoOnRandomSchedules)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        stats::StatGroup group("fifo");
        mem::TraceFifo fifo(8, group);
        check::RefFifo ref(8);
        obs::TraceLog log;
        fifo.setTraceLog(&log, 0);

        Pcg32 rng(seed, 99);
        Tick tick = 0;
        for (int i = 0; i < 600; ++i) {
            tick += rng.nextBounded(30);
            Cycles cost = 1 + rng.nextBounded(40);
            mem::FifoPushResult real = fifo.push(tick, cost);
            check::RefFifo::PushResult model = ref.push(tick, cost);
            ASSERT_EQ(real.pushDoneTick, model.pushDone)
                << "push " << i << " seed " << seed;
            ASSERT_EQ(real.stallCycles, model.stall);
            ASSERT_EQ(real.serviceStartTick, model.serviceStart);
            ASSERT_EQ(real.serviceEndTick, model.serviceEnd);
            Tick probe = tick + rng.nextBounded(60);
            ASSERT_EQ(fifo.occupancyAt(probe), ref.occupancyAt(probe))
                << "occupancy probe at " << probe;
        }
        EXPECT_EQ(fifo.drainTick(), ref.drainTick());
        EXPECT_EQ(fifo.pushes(), ref.pushes());
#if INDRA_OBS_TRACING_ENABLED
        // Watermark crossings must agree with the traced events.
        EXPECT_EQ(log.countOf(obs::EventKind::FifoHighWater),
                  ref.highWaterCrossings());
        EXPECT_EQ(log.countOf(obs::EventKind::FifoLowWater),
                  ref.lowWaterCrossings());
#endif
    }
}

// The flat-ring FIFO must keep matching the reference once the ring
// has wrapped many times over (pushes >> capacity) — the regime where
// an off-by-one in head/count bookkeeping would first diverge — and
// through the saturation region near maxTick, where both timelines
// pin to the "never" sentinel instead of wrapping.
TEST(RefFifo, MatchesTraceFifoThroughWrapAndSaturation)
{
    stats::StatGroup group("fifo");
    mem::TraceFifo fifo(4, group);
    check::RefFifo ref(4);
    Pcg32 rng(11, 7);

    // Phase 1: thousands of pushes through a tiny ring.
    Tick tick = 0;
    for (int i = 0; i < 5000; ++i) {
        tick += rng.nextBounded(6);
        Cycles cost = 1 + rng.nextBounded(9);
        mem::FifoPushResult real = fifo.push(tick, cost);
        check::RefFifo::PushResult model = ref.push(tick, cost);
        ASSERT_EQ(real.serviceStartTick, model.serviceStart) << i;
        ASSERT_EQ(real.serviceEndTick, model.serviceEnd) << i;
        ASSERT_EQ(real.stallCycles, model.stall) << i;
        ASSERT_EQ(fifo.occupancyAt(tick), ref.occupancyAt(tick)) << i;
    }

    // Phase 2: jump to the edge of representable time.
    fifo.reset();
    ref.reset();
    Tick edge = maxTick - 200;
    for (int i = 0; i < 50; ++i) {
        edge = saturatingAdd(edge, rng.nextBounded(8));
        Cycles cost = 1 + rng.nextBounded(100);
        mem::FifoPushResult real = fifo.push(edge, cost);
        check::RefFifo::PushResult model = ref.push(edge, cost);
        ASSERT_EQ(real.serviceStartTick, model.serviceStart) << i;
        ASSERT_EQ(real.serviceEndTick, model.serviceEnd) << i;
        ASSERT_LE(real.serviceEndTick, maxTick) << i;
    }
    EXPECT_EQ(fifo.drainTick(), maxTick);
    EXPECT_EQ(ref.drainTick(), maxTick);
}

// --------------------------------------------------------- RefUndoLog

TEST(RefUndoLog, OldestValuePerAddressWins)
{
    check::RefUndoLog undo;
    undo.beginEpoch();
    undo.noteStore(0x1000, 111, 8);
    undo.noteStore(0x1000, 222, 8);
    undo.noteStore(0x1008, 5, 8);
    undo.noteStore(0x1000, 333, 8);
    EXPECT_EQ(undo.entryCount(), 2u);
    ASSERT_NE(undo.find(0x1000), nullptr);
    EXPECT_EQ(undo.find(0x1000)->value, 111u);
    EXPECT_EQ(undo.find(0x1008)->value, 5u);
    EXPECT_EQ(undo.find(0x2000), nullptr);
    undo.beginEpoch();
    EXPECT_EQ(undo.entryCount(), 0u);
}

// -------------------------------------------- update-log duplicates

/** Regression: replaying an epoch with several stores to the same
 * address must restore the *oldest* pre-store value, not an
 * intermediate one — the undo entries are replayed newest-to-oldest
 * so the oldest write lands last. */
TEST(UpdateLogDuplicates, ReplayRestoresOldestValue)
{
    MemoryRig rig;
    rig.cfg.checkpointScheme = CheckpointScheme::MemoryUpdateLog;
    rig.space->mapRegion(pageBase, 2, os::Region::Data);
    stats::StatGroup group("log");
    auto policy = ckpt::makePolicy(rig.cfg, *rig.context, *rig.space,
                                   rig.phys, *rig.hierarchy, group);

    Addr addr = pageBase + 64;
    Addr other = pageBase + 4096 + 8;
    rig.poke64(addr, 111);
    rig.poke64(other, 1000);
    rig.context->incrementGts();
    policy->onRequestBegin(0);

    policy->onStore(0, 1, addr, 8);
    rig.poke64(addr, 222);
    policy->onStore(0, 1, other, 8);
    rig.poke64(other, 2000);
    policy->onStore(0, 1, addr, 8);
    rig.poke64(addr, 333);
    policy->onStore(0, 1, addr, 8);
    rig.poke64(addr, 444);

    policy->onFailure(0);
    policy->drainRollback(0);
    EXPECT_EQ(rig.peek64(addr), 111u)
        << "duplicate-address replay must restore the oldest value";
    EXPECT_EQ(rig.peek64(other), 1000u);
}

/** Differential: the production update log against the sorted-map
 * reference under randomized duplicate-heavy store schedules. */
TEST(UpdateLogDuplicates, RandomizedReplayMatchesReferenceUndoLog)
{
    constexpr std::uint32_t numPages = 3;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        MemoryRig rig;
        rig.cfg.checkpointScheme = CheckpointScheme::MemoryUpdateLog;
        rig.space->mapRegion(pageBase, numPages, os::Region::Data);
        stats::StatGroup group("log");
        auto policy = ckpt::makePolicy(rig.cfg, *rig.context,
                                       *rig.space, rig.phys,
                                       *rig.hierarchy, group);
        check::RefUndoLog undo;
        Pcg32 rng(seed, 1234);

        for (std::uint32_t p = 0; p < numPages; ++p) {
            for (std::uint32_t off = 0; off < 4096; off += 8)
                rig.poke64(pageBase + p * 4096 + off, p * 4096 + off);
        }

        for (int request = 0; request < 6; ++request) {
            rig.context->incrementGts();
            policy->onRequestBegin(0);
            undo.beginEpoch();

            // A small address pool makes duplicates the common case.
            int ops = 10 + static_cast<int>(rng.nextBounded(60));
            for (int i = 0; i < ops; ++i) {
                Addr addr = pageBase +
                    rng.nextBounded(numPages) * 4096 +
                    rng.nextBounded(16) * 8;
                undo.noteStore(addr, rig.peek64(addr), 8);
                policy->onStore(0, 1, addr, 8);
                rig.poke64(addr, rng.next());
            }

            policy->onFailure(0);
            policy->drainRollback(0);
            for (const auto &[addr, old] : undo.entries()) {
                ASSERT_EQ(rig.peek64(addr), old.value)
                    << "addr 0x" << std::hex << addr << std::dec
                    << " request " << request << " seed " << seed;
            }
        }
    }
}

// ------------------------------------- RefMemory engine equivalence

/** The software and virtual schemes run the *same* schedule (fixed
 * seed) and every rollback must land on the RefMemory image captured
 * at that epoch's begin. */
class RefMemoryEquivalence
    : public ::testing::TestWithParam<CheckpointScheme>
{
};

TEST_P(RefMemoryEquivalence, SameScheduleRestoresToEpochImage)
{
    constexpr std::uint32_t numPages = 4;
    MemoryRig rig;
    rig.cfg.checkpointScheme = GetParam();
    rig.space->mapRegion(pageBase, numPages, os::Region::Data);
    stats::StatGroup group("equiv");
    auto policy = ckpt::makePolicy(rig.cfg, *rig.context, *rig.space,
                                   rig.phys, *rig.hierarchy, group);
    check::RefMemory golden(rig.cfg.pageBytes);
    // Fixed seed: both schemes see the identical schedule.
    Pcg32 rng(4242, 7);

    for (std::uint32_t p = 0; p < numPages; ++p) {
        for (std::uint32_t off = 0; off < 4096; off += 8)
            rig.poke64(pageBase + p * 4096 + off, p * 100000 + off);
    }

    for (int request = 0; request < 10; ++request) {
        rig.context->incrementGts();
        policy->onRequestBegin(0);
        golden.clear();
        for (std::uint32_t p = 0; p < numPages; ++p) {
            Vpn vpn = pageBase / 4096 + p;
            golden.capturePage(
                vpn, rig.phys.snapshotFrame(rig.space->translate(1, vpn)));
        }

        int ops = 15 + static_cast<int>(rng.nextBounded(80));
        for (int i = 0; i < ops; ++i) {
            Addr addr = pageBase + rng.nextBounded(numPages) * 4096 +
                        rng.nextBounded(4096 / 8) * 8;
            policy->onStore(0, 1, addr, 8);
            rig.poke64(addr, rng.next());
        }

        if (rng.bernoulli(0.5)) {
            policy->onFailure(0);
            policy->drainRollback(0);
            for (std::uint32_t p = 0; p < numPages; ++p) {
                Vpn vpn = pageBase / 4096 + p;
                auto mm = golden.comparePage(
                    vpn,
                    rig.phys.snapshotFrame(rig.space->translate(1, vpn)));
                ASSERT_FALSE(mm.has_value())
                    << checkpointSchemeName(GetParam())
                    << " request " << request << ": " << mm->describe();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SoftwareAndVirtual, RefMemoryEquivalence,
    ::testing::Values(CheckpointScheme::SoftwareCheckpoint,
                      CheckpointScheme::VirtualCheckpoint),
    [](const auto &info) {
        return info.param == CheckpointScheme::SoftwareCheckpoint
                   ? "software"
                   : "virtual";
    });

// --------------------------------------------------------- invariants

TEST(HealthEdges, LegalAndIllegalTransitions)
{
    using resilience::HealthState;
    // Legal edges of the documented machine.
    EXPECT_TRUE(check::healthEdgeLegal(HealthState::Healthy,
                                       HealthState::Degraded));
    EXPECT_TRUE(check::healthEdgeLegal(HealthState::Degraded,
                                       HealthState::Quarantined));
    EXPECT_TRUE(check::healthEdgeLegal(HealthState::Degraded,
                                       HealthState::Healthy));
    EXPECT_TRUE(check::healthEdgeLegal(HealthState::Quarantined,
                                       HealthState::Degraded));
    EXPECT_TRUE(check::healthEdgeLegal(HealthState::Rejuvenating,
                                       HealthState::Healthy));
    // Rejuvenating is reachable from anywhere.
    for (auto from : {HealthState::Healthy, HealthState::Degraded,
                      HealthState::Quarantined,
                      HealthState::Rejuvenating}) {
        EXPECT_TRUE(check::healthEdgeLegal(
            from, HealthState::Rejuvenating));
    }
    // Skipping rungs is illegal.
    EXPECT_FALSE(check::healthEdgeLegal(HealthState::Healthy,
                                        HealthState::Quarantined));
    EXPECT_FALSE(check::healthEdgeLegal(HealthState::Quarantined,
                                        HealthState::Healthy));
    EXPECT_FALSE(check::healthEdgeLegal(HealthState::Rejuvenating,
                                        HealthState::Degraded));
}

TEST(TokenConservation, BucketLevelStaysWithinBounds)
{
    resilience::TokenBucket bucket(40.0, 10.0);
    Pcg32 rng(7, 3);
    Tick now = 0;
    for (int i = 0; i < 3000; ++i) {
        now += rng.nextBounded(100000);
        bucket.advance(now);
        ASSERT_GE(bucket.tokens(), -1e-6);
        ASSERT_LE(bucket.tokens(), bucket.burstDepth() + 1e-6);
        if (rng.bernoulli(0.7))
            bucket.tryTake(now, rng.bernoulli(0.5) ? 1.0 : 0.5);
        ASSERT_GE(bucket.tokens(), -1e-6);
        ASSERT_LE(bucket.tokens(), bucket.burstDepth() + 1e-6);
    }
}

TEST(InvariantRegistry, VacuousPassAndCustomFailure)
{
    check::InvariantRegistry reg;
    EXPECT_GE(reg.size(), 6u);

    // A context with every subject absent passes vacuously.
    std::vector<check::Violation> out;
    EXPECT_EQ(reg.evaluate(check::CheckContext{}, 5, 1, 2, out), 0u);
    EXPECT_TRUE(out.empty());

    reg.add(check::InvariantId::FifoModelConforms,
            [](const check::CheckContext &, std::string &detail) {
                detail = "doomed";
                return false;
            });
    EXPECT_EQ(reg.evaluate(check::CheckContext{}, 5, 1, 2, out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, check::InvariantId::FifoModelConforms);
    EXPECT_EQ(out[0].detail, "doomed");
    EXPECT_EQ(out[0].tick, 5u);
    EXPECT_EQ(out[0].pid, 1u);
    EXPECT_EQ(out[0].epoch, 2u);
    EXPECT_NE(out[0].describe().find("fifo-model-conforms"),
              std::string::npos);
}

// ---------------------------------------------------------- scenarios

TEST(Scenario, JsonRoundTripPreservesEveryField)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        check::Scenario sc = check::makeScenario(seed);
        check::Scenario back = check::Scenario::fromJson(sc.toJson());
        EXPECT_EQ(back, sc) << "seed " << seed << ": " << sc.toJson();
    }
    check::Scenario planted = check::makePlantedScenario(3);
    EXPECT_EQ(check::Scenario::fromJson(planted.toJson()), planted);
}

TEST(Scenario, AdversaryFieldsRoundTrip)
{
    check::Scenario sc = check::makeScenario(1);
    sc.stormBurst = 4;
    sc.adversaryBudget = 32;
    sc.adversaryStrategy = adversary::AdversaryStrategy::Reinfect;
    sc.rejuvenationTrigger = resilience::RejuvenationTrigger::Suspicion;
    EXPECT_EQ(check::Scenario::fromJson(sc.toJson()), sc);
    EXPECT_NE(sc.describe().find("adv=reinfectx32"), std::string::npos);
    EXPECT_NE(sc.describe().find("rj=suspicion"), std::string::npos);
}

TEST(Scenario, PreAdversaryReproducersParseToDefaults)
{
    // Reproducer JSON written before the adversary existed carries
    // none of the new keys; it must parse to the classic precomputed
    // schedule with rejuvenation disarmed.
    check::Scenario sc = check::Scenario::fromJson(
        "{\"seed\": 7, \"daemon\": \"httpd\", \"storm_burst\": 4,"
        " \"steps\": [{\"attack\": \"benign\", \"repeat\": 3}]}");
    EXPECT_EQ(sc.seed, 7u);
    EXPECT_EQ(sc.stormBurst, 4u);
    EXPECT_EQ(sc.adversaryBudget, 0u);
    EXPECT_EQ(sc.adversaryStrategy, adversary::AdversaryStrategy::Fixed);
    EXPECT_EQ(sc.rejuvenationTrigger,
              resilience::RejuvenationTrigger::None);
}

TEST(Scenario, DerivationIsAPureFunctionOfTheSeed)
{
    for (std::uint64_t seed : {1u, 17u, 123u}) {
        EXPECT_EQ(check::makeScenario(seed), check::makeScenario(seed));
    }
    EXPECT_NE(check::makeScenario(1), check::makeScenario(2));
}

TEST(Scenario, FirstAttackEpochCountsRepeats)
{
    check::Scenario sc;
    sc.steps = {{net::AttackKind::None, 3},
                {net::AttackKind::StackSmash, 2}};
    EXPECT_EQ(sc.requestCount(), 5u);
    EXPECT_EQ(sc.firstAttackEpoch(), 4u);
    sc.steps = {{net::AttackKind::None, 2}};
    EXPECT_EQ(sc.firstAttackEpoch(), 0u);
}

TEST(Scenario, RequestSeqsStartAtOne)
{
    // ClientScript::benign's convention: under DomainRewind an
    // unassigned request lands in domain seq % domainCount, so the
    // base decides which domain serves it.
    check::Scenario sc;
    sc.steps = {{net::AttackKind::None, 2},
                {net::AttackKind::StackSmash, 1}};
    std::vector<net::ServiceRequest> reqs = check::scenarioRequests(sc);
    ASSERT_EQ(reqs.size(), 3u);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].seq, i + 1);
    EXPECT_EQ(reqs[1].attack, net::AttackKind::None);
    EXPECT_EQ(reqs[2].attack, net::AttackKind::StackSmash);
}

TEST(Scenario, SeedAbove2To53RoundTripsExactly)
{
    // 2^53 + 1 is the first integer a double cannot hold.
    check::Scenario sc = check::makeScenario(1);
    sc.seed = (1ULL << 53) + 1;
    EXPECT_EQ(check::Scenario::fromJson(sc.toJson()).seed, sc.seed);
    sc.seed = ~0ULL;
    EXPECT_EQ(check::Scenario::fromJson(sc.toJson()).seed, sc.seed);
}

namespace
{

/** One integer field of a scenario or reproducer file. */
struct IntField
{
    const char *key; //!< as the error names it
    bool u32;
    /** The smallest document carrying @p v in this field. */
    std::string (*doc)(const char *key, const std::string &v);
};

std::string
topLevel(const char *key, const std::string &v)
{
    return std::string("{\"") + key + "\": " + v + "}";
}

std::string
faultMagnitude(const char *, const std::string &v)
{
    return "{\"faults\": [{\"kind\": \"trace-drop\", \"rate\": 0.1, "
           "\"magnitude\": " + v + "}]}";
}

std::string
stepRepeat(const char *, const std::string &v)
{
    return "{\"steps\": [{\"attack\": \"benign\", \"repeat\": " + v +
           "}]}";
}

constexpr IntField intFields[] = {
    {"seed", false, topLevel},
    {"instr_per_request", false, topLevel},
    {"macro_period", false, topLevel},
    {"fail_threshold", true, topLevel},
    {"storm_burst", true, topLevel},
    {"plant_at_epoch", false, topLevel},
    {"adversary_budget", false, topLevel},
    {"domain_count", true, topLevel},
    {"faults[].magnitude", false, faultMagnitude},
    {"steps[].repeat", true, stepRepeat},
    {"rca_expect_escapes", false, topLevel},
    {"rca_expect_failures", false, topLevel},
    {"rca_first_escape_seq", false, topLevel},
    {"rca_shrink_runs", false, topLevel},
};

/** @p key with the regex metacharacters it contains escaped. */
std::string
keyPattern(const std::string &key)
{
    std::string out;
    for (char c : key) {
        if (c == '[' || c == ']' || c == '.')
            out += '\\';
        out += c;
    }
    return "JSON field '" + out + "'";
}

} // anonymous namespace

// Integer fields are read exactly from the number's text: a sign, a
// fraction, an exponent or a value past the field's width is fatal,
// naming the key, instead of a silent float cast.
TEST(ScenarioJsonDeathTest, MalformedIntegersAreFatalNamingTheKey)
{
    for (const IntField &f : intFields) {
        std::vector<std::string> bad = {"-1", "2.5",
                                        "18446744073709551616", "1e400"};
        if (f.u32)
            bad.push_back("4294967296");
        for (const std::string &v : bad) {
            std::string text = f.doc(f.key, v);
            EXPECT_EXIT(rca::reproducerFromJson(text),
                        ::testing::ExitedWithCode(1), keyPattern(f.key))
                << text;
        }
    }
}

TEST(ScenarioJsonDeathTest, FaultRateOutsideUnitIntervalIsFatal)
{
    for (const char *rate : {"1.5", "-0.1", "1e400"}) {
        std::string text = std::string("{\"faults\": [{\"kind\": "
                                       "\"trace-drop\", \"rate\": ") +
                           rate + "}]}";
        EXPECT_EXIT(check::Scenario::fromJson(text),
                    ::testing::ExitedWithCode(1),
                    keyPattern("faults[].rate"))
            << text;
    }
}

// Structural defects die naming the key or the offset: lists that
// are not arrays of objects (they used to replay as an empty
// scenario, or a scalar item as a trace-drop fault at rate 0), a
// fault without a kind, wrong-kind values inside a list (named by the
// list's path), a \u escape that is not four hex digits (read as NUL
// before), and nesting deep enough to overflow the stack.
TEST(ScenarioJsonDeathTest, MalformedStructureIsFatalNamingTheKey)
{
    const std::pair<std::string, const char *> cases[] = {
        {"{\"faults\": 5}", "JSON field 'faults' is not an array"},
        {"{\"steps\": {\"attack\": \"benign\"}}",
         "JSON field 'steps' is not an array"},
        {"{\"faults\": [1]}", "JSON field 'faults\\[\\]' is not an object"},
        {"{\"steps\": [\"benign\"]}",
         "JSON field 'steps\\[\\]' is not an object"},
        {"{\"faults\": [{\"rate\": 0.5}]}", "setting 'faults\\[\\]\\.kind'"},
        {"{\"steps\": [{\"attack\": 5}]}",
         "JSON field 'steps\\[\\]\\.attack' is not a string"},
        {"{\"faults\": [{\"kind\": true}]}",
         "JSON field 'faults\\[\\]\\.kind' is not a string"},
        {"{\"guard\": 1}", "JSON field 'guard' is not a boolean"},
        {"{\"daemon\": \"\\uZZZZ\"}", "offset [0-9]+: bad \\\\u escape"},
        {"{\"daemon\": \"\\u00\"}", "offset [0-9]+: bad \\\\u escape"},
        {"{\"daemon\": \"\\u12G4\"}", "offset [0-9]+: bad \\\\u escape"},
        {"{\"steps\": " + std::string(200000, '['),
         "offset [0-9]+: nesting too deep"},
    };
    for (const auto &[text, pattern] : cases)
        EXPECT_EXIT(check::Scenario::fromJson(text),
                    ::testing::ExitedWithCode(1), pattern)
            << text.substr(0, 80);
    EXPECT_EQ(check::Scenario::fromJson("{\"daemon\": \"\\u0041b\"}").daemon,
              "Ab");
}

TEST(Scenario, StepWithoutAttackIsBenign)
{
    check::Scenario sc =
        check::Scenario::fromJson("{\"steps\": [{\"repeat\": 2}]}");
    ASSERT_EQ(sc.steps.size(), 1u);
    EXPECT_EQ(sc.steps[0].attack, net::AttackKind::None);
    EXPECT_EQ(sc.steps[0].repeat, 2u);
}

namespace
{

/** The lexical tokens of a JSON text (strings, bare words and
 *  numbers, single punctuation), and their re-join. */
std::vector<std::string>
jsonTokens(const std::string &text)
{
    auto word = [](unsigned char c) {
        return std::isalnum(c) || c == '_' || c == '-' || c == '+' ||
            c == '.';
    };
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < text.size()) {
        auto c = static_cast<unsigned char>(text[i]);
        std::size_t end = i + 1;
        if (std::isspace(c)) {
            ++i;
            continue;
        }
        if (c == '"') {
            // A string runs to the first unescaped quote, and a
            // backslash escapes any character but a line break. An
            // unterminated string leaves the quote a token of its own.
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '"') {
                if (text[j] != '\\') {
                    ++j;
                    continue;
                }
                if (j + 1 == text.size() || text[j + 1] == '\n' ||
                    text[j + 1] == '\r')
                    break;
                j += 2;
            }
            if (j < text.size() && text[j] == '"')
                end = j + 1;
        } else if (word(c)) {
            while (end < text.size() &&
                   word(static_cast<unsigned char>(text[end])))
                ++end;
        }
        tokens.push_back(text.substr(i, end - i));
        i = end;
    }
    return tokens;
}

std::string
joinTokens(const std::vector<std::string> &tokens)
{
    std::string out;
    for (const std::string &t : tokens)
        out += t + " ";
    return out;
}

/** One malformed variant of @p text: mutation @p kind (0..4) drawn
 *  from @p rng — a byte flip, a truncation, a token swap, deep
 *  nesting at a value, or a value of the wrong kind. */
std::string
mutateJson(const std::string &text, unsigned kind, Pcg32 &rng)
{
    auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.nextBounded(static_cast<std::uint32_t>(n)));
    };
    std::vector<std::string> tokens = jsonTokens(text);
    std::vector<std::size_t> values; // tokens that follow a ':'
    for (std::size_t i = 1; i < tokens.size(); ++i)
        if (tokens[i - 1] == ":")
            values.push_back(i);
    switch (kind) {
      case 0: {
        std::string out = text;
        for (std::size_t n = 1 + below(3); n; --n)
            out[below(out.size())] = static_cast<char>(below(256));
        return out;
      }
      case 1:
        return text.substr(0, below(text.size()));
      case 2:
        std::swap(tokens[below(tokens.size())],
                  tokens[below(tokens.size())]);
        return joinTokens(tokens);
      case 3: {
        static constexpr std::size_t depths[] = {63, 64, 65, 5000,
                                                 200000};
        std::size_t depth = depths[below(5)];
        std::string &at = tokens[values[below(values.size())]];
        at = std::string(depth, '[') + at + std::string(depth, ']');
        return joinTokens(tokens);
      }
      default: {
        static constexpr const char *wrong[] = {
            "5",   "-1",   "2.5", "1e400", "\"x\"", "\"\"",  "true",
            "null", "[]",  "{}",  "[1]",   "[{}]",  "[[]]", "{\"a\": 1}",
        };
        tokens[values[below(values.size())]] =
            wrong[below(std::size(wrong))];
        return joinTokens(tokens);
      }
    }
}

/** Parse @p text with @p parse in a death-test child: exit 0 with
 *  "parsed" on success (fatal() exits 1 on a rejection). */
template <typename Parse>
void
parseOrDie(Parse parse, const std::string &text)
{
    parse(text);
    std::fputs("parsed\n", stderr);
    std::exit(0);
}

} // anonymous namespace

// Randomized robustness: mutants of a valid reproducer must either
// parse or die through fatal() naming the key or the offset — never
// by a signal.
TEST(ScenarioJsonDeathTest, MutatedReproducersParseOrDieNamingTheKey)
{
    auto exitedCleanly = [](int status) {
        return WIFEXITED(status) &&
               (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
    };
    const char *verdict =
        "^parsed|fatal: (JSON parse error at offset [0-9]+|"
        "(JSON field|setting) '[^']+'|scenario JSON must be an object)";

    rca::Reproducer rep;
    rep.scenario = check::makeScenario(3);
    rep.scenario.faults.push_back({faults::FaultKind::DeltaFlip, 0.5, 7});
    rep.kind = faults::FaultKind::DeltaFlip;
    rep.expectEscapes = 2;
    const std::string base = rca::reproducerToJson(rep);
    ASSERT_EQ(rca::reproducerFromJson(base).scenario, rep.scenario);

    Pcg32 rng(2024, 0x6a50);
    for (unsigned i = 0; i < 150; ++i) {
        std::string text = mutateJson(base, i % 5, rng);
        EXPECT_EXIT(parseOrDie(check::Scenario::fromJson, text),
                    exitedCleanly, verdict)
            << "mutant " << i << ": " << text.substr(0, 400);
        EXPECT_EXIT(parseOrDie(rca::reproducerFromJson, text),
                    exitedCleanly, verdict)
            << "mutant " << i << ": " << text.substr(0, 400);
    }
}

// ----------------------------------------------------------- shrinker

TEST(Shrinker, MinimizesWhilePreservingTheInvariant)
{
    using net::AttackKind;
    check::Scenario sc;
    sc.guardArmed = true;
    sc.stormBurst = 8;
    sc.stormAttackRate = 20.0;
    sc.faults = {{faults::FaultKind::TraceDrop, 0.05, 0},
                 {faults::FaultKind::DeltaFlip, 0.15, 0}};
    sc.steps = {{AttackKind::None, 3},       {AttackKind::StackSmash, 2},
                {AttackKind::CodeInjection, 1}, {AttackKind::None, 2},
                {AttackKind::StackSmash, 4}, {AttackKind::Dormant, 2}};

    auto smashCount = [](const check::Scenario &s) {
        std::uint64_t n = 0;
        for (const auto &step : s.steps) {
            if (step.attack == AttackKind::StackSmash)
                n += step.repeat;
        }
        return n;
    };
    // Synthetic failure: at least three stack smashes trip it.
    check::ScenarioRunFn run = [&](const check::Scenario &s) {
        check::ScenarioVerdict v;
        v.requests = s.requestCount();
        if (smashCount(s) >= 3) {
            v.violated = true;
            v.invariant = check::InvariantId::TokenConservation;
        }
        return v;
    };

    check::ScenarioVerdict orig = run(sc);
    ASSERT_TRUE(orig.violated);
    check::ShrinkResult res =
        check::shrinkScenario(sc, orig, run, 500);
    EXPECT_TRUE(res.verdict.violated);
    EXPECT_EQ(res.verdict.invariant,
              check::InvariantId::TokenConservation);
    EXPECT_EQ(smashCount(res.scenario), 3u)
        << "shrink overshot the failure threshold";
    EXPECT_EQ(res.scenario.requestCount(), 3u)
        << "irrelevant schedule steps survived shrinking";
    EXPECT_TRUE(res.scenario.faults.empty());
    EXPECT_EQ(res.scenario.stormBurst, 0u);
    EXPECT_FALSE(res.scenario.guardArmed);
    EXPECT_GT(res.runsUsed, 0u);
    EXPECT_LE(res.runsUsed, 500u);
}

TEST(Shrinker, PassingScenarioIsReturnedUnchanged)
{
    check::Scenario sc = check::makeScenario(9);
    check::ScenarioVerdict orig; // not violated
    std::uint64_t calls = 0;
    check::ScenarioRunFn run = [&](const check::Scenario &) {
        ++calls;
        return check::ScenarioVerdict{};
    };
    check::ShrinkResult res = check::shrinkScenario(sc, orig, run, 50);
    EXPECT_EQ(res.scenario, sc);
    EXPECT_LE(res.runsUsed, 50u);
}

// -------------------------------------------------------- end to end

TEST(OracleEndToEnd, CleanScenariosProduceNoViolations)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        check::Scenario sc = check::makeScenario(seed);
        check::ScenarioVerdict v = check::runScenario(sc);
        EXPECT_FALSE(v.violated)
            << sc.describe() << ": " << v.detail;
        EXPECT_GT(v.checks, 0u) << sc.describe();
        if (sc.stormBurst)
            EXPECT_GT(v.requests, sc.requestCount());
        else
            EXPECT_EQ(v.requests, sc.requestCount());
    }
}

TEST(OracleEndToEnd, PlantedRollbackBugIsCaughtAndShrunk)
{
    check::Scenario sc = check::makePlantedScenario(1);
    check::ScenarioVerdict v = check::runScenario(sc);
    ASSERT_TRUE(v.violated) << "the oracle missed the planted bug";
    EXPECT_EQ(v.invariant, check::InvariantId::MemoryRestoreExact);

    check::ShrinkResult res =
        check::shrinkScenario(sc, v, check::runScenario, 120);
    EXPECT_TRUE(res.verdict.violated);
    EXPECT_EQ(res.verdict.invariant,
              check::InvariantId::MemoryRestoreExact);
    EXPECT_LE(res.scenario.requestCount(), 10u)
        << "reproducer did not shrink: "
        << res.scenario.toJson();
}

/** The re-infection invariant's own sensitivity: dormant damage that
 * is still planted when a rejuvenation claims to have completed must
 * be flagged as RejuvenationClearsDormant. */
TEST(OracleEndToEnd, DormantDamageSurvivingRejuvenationIsFlagged)
{
    SystemConfig cfg;
    cfg.physMemBytes = 64ULL * 1024 * 1024;
    faults::FaultPlan plan;
    resilience::ResilienceConfig rcfg;
    core::IndraSystem sys(core::NodeConfig{cfg, plan, rcfg});
    check::SystemChecker checker(sys);
    sys.attachChecker(&checker);
    sys.boot();
    std::size_t slot = sys.deployService(net::daemonByName("httpd"));
    Pid pid = sys.slot(slot).pid;

    net::ServiceRequest req;
    req.seq = 1;
    req.attack = net::AttackKind::Dormant;
    sys.processRequest(slot, req);
    ASSERT_TRUE(sys.refsForPid(pid).second->app->hasDormantDamage());
    ASSERT_TRUE(checker.ok());

    // Drive the recovery hook directly, claiming a rejuvenation
    // completed while the plant is still live — the heal the real
    // ladder performs is deliberately skipped here.
    checker.onRecovered(1000, pid, check::RestoreLevel::Rejuvenation);
    bool flagged = false;
    for (const check::Violation &v : checker.violations())
        flagged |= v.id == check::InvariantId::RejuvenationClearsDormant;
    EXPECT_TRUE(flagged);
}

/** The shrunk reproducer JSON re-runs identically — same invariant,
 * same epoch, same tick — whether evaluated serially or on an
 * 8-worker sweep. */
TEST(OracleEndToEnd, ReproducerFailsIdenticallyAcrossSweepWorkers)
{
    check::Scenario sc = check::makePlantedScenario(2);
    check::ScenarioVerdict v = check::runScenario(sc);
    ASSERT_TRUE(v.violated);
    check::ShrinkResult res =
        check::shrinkScenario(sc, v, check::runScenario, 120);
    std::string json = res.scenario.toJson();

    auto runCells = [&](unsigned jobs) {
        harness::ParallelSweep sweep(jobs);
        return sweep.run(8, [&](std::size_t) {
            return check::runScenario(check::Scenario::fromJson(json));
        });
    };
    std::vector<check::ScenarioVerdict> serial = runCells(1);
    std::vector<check::ScenarioVerdict> parallel = runCells(8);
    EXPECT_TRUE(res.verdict.violated);
    EXPECT_EQ(serial, std::vector<check::ScenarioVerdict>(8, res.verdict));
    EXPECT_EQ(parallel, serial);
}
