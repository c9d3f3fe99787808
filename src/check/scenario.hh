/**
 * @file
 * Deterministic scenario fuzzing with shrinking.
 *
 * A Scenario is a complete, serializable description of one oracle
 * run: the daemon, the checkpoint scheme, the fault plan, the
 * request/attack schedule, optional storm traffic, and (for oracle
 * self-tests) a planted rollback bug. Every stochastic choice inside
 * the run derives from the scenario's seed, so a scenario is a pure
 * value: running it twice — or on different sweep workers — produces
 * the same verdict.
 *
 * makeScenario() derives a scenario from a PCG seed (the fuzzer's
 * generator); shrinkScenario() greedily minimizes a failing scenario
 * while preserving the violated invariant; toJson()/fromJson() give
 * reproducer files the bench can --replay.
 */

#ifndef INDRA_ORACLE_SCENARIO_HH
#define INDRA_ORACLE_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adversary/adversary_config.hh"
#include "check/invariants.hh"
#include "core/node_config.hh"
#include "faults/fault_plan.hh"
#include "net/request.hh"
#include "resilience/rejuvenation.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace indra::check
{

/** One armed fault in a scenario (mirrors faults::FaultSpec as a
 *  plain comparable value). */
struct FaultSetting
{
    faults::FaultKind kind = faults::FaultKind::TraceDrop;
    double rate = 0.0;
    std::uint64_t magnitude = 0;

    bool operator==(const FaultSetting &) const = default;
};

/** A run of identical requests in the schedule. */
struct ScenarioStep
{
    net::AttackKind attack = net::AttackKind::None;
    std::uint32_t repeat = 1;

    bool operator==(const ScenarioStep &) const = default;
};

/** A complete fuzz scenario. */
struct Scenario
{
    std::uint64_t seed = 1;
    std::string daemon = "httpd";
    CheckpointScheme scheme = CheckpointScheme::DeltaBackup;
    std::uint64_t instrPerRequest = 25000;
    std::uint64_t macroPeriod = 10;
    std::uint32_t failThreshold = 2;
    bool guardArmed = false;
    /** Malicious requests per storm burst; 0 = no storm phase. */
    std::uint32_t stormBurst = 0;
    double stormAttackRate = 0.0;
    /** Oracle self-test: corrupt one byte behind the backup engine's
     *  back at the start of this epoch (0 = off). */
    std::uint64_t plantAtEpoch = 0;
    /** Adaptive adversary driving the storm phase (0 = classic
     *  precomputed schedule). */
    std::uint64_t adversaryBudget = 0;
    adversary::AdversaryStrategy adversaryStrategy =
        adversary::AdversaryStrategy::Fixed;
    /** Proactive rejuvenation policy (None = reactive-only ladder). */
    resilience::RejuvenationTrigger rejuvenationTrigger =
        resilience::RejuvenationTrigger::None;
    /** Isolated domains for the domain-rewind scheme (0 = leave the
     *  system config's default alone). */
    std::uint32_t domainCount = 0;
    std::vector<FaultSetting> faults;
    std::vector<ScenarioStep> steps;

    /** Total scheduled requests (sum of step repeats). */
    std::uint64_t requestCount() const;

    /** 1-based epoch of the first attack request, or 0 if none. */
    std::uint64_t firstAttackEpoch() const;

    /** Short cell label: "s17 httpd delta-backup f=1 a=3/12 storm". */
    std::string describe() const;

    std::string toJson() const;
    static Scenario fromJson(const std::string &text);

    bool operator==(const Scenario &) const = default;
};

/** Derive the fuzz scenario of @p seed (pure function). */
Scenario makeScenario(std::uint64_t seed);

/** The oracle-sensitivity scenario: a planted rollback bug that a
 *  correct oracle must catch at a micro recovery. */
Scenario makePlantedScenario(std::uint64_t seed);

/** The domain-rewind sensitivity scenario: the same planted flip
 *  under CheckpointScheme::DomainRewind, caught by the
 *  DomainRewindConfined compare at a confined rewind. */
Scenario makePlantedDomainScenario(std::uint64_t seed);

/**
 * The node build recipe of @p sc: system config, fault plan and
 * resilience knobs as one NodeConfig. runScenario and the rca
 * campaign both build their machines from it, so an oracle verdict
 * and an rca verdict are about the same machine.
 */
core::NodeConfig nodeConfigFor(const Scenario &sc);

/**
 * @p sc's request schedule as explicit requests, seqs numbered from 1
 * (ClientScript::benign's convention). runScenario and the rca
 * campaign both serve it, so one reproducer file puts each request in
 * the same DomainRewind domain (seq % domainCount when unassigned)
 * under either runner.
 */
std::vector<net::ServiceRequest> scenarioRequests(const Scenario &sc);

/** What one scenario run concluded. */
struct ScenarioVerdict
{
    bool violated = false;
    InvariantId invariant = InvariantId::MemoryRestoreExact;
    std::uint64_t epoch = 0;
    Tick tick = 0;
    std::string detail;
    std::uint64_t requests = 0;  //!< requests actually executed
    std::uint64_t checks = 0;    //!< oracle checks evaluated
    std::uint64_t violations = 0;

    bool operator==(const ScenarioVerdict &) const = default;
};

/**
 * Build the system described by @p sc, attach the oracle, run the
 * schedule (and storm phase, if armed), and report.
 */
ScenarioVerdict runScenario(const Scenario &sc);

/** Scenario evaluation function (injectable for shrinker tests). */
using ScenarioRunFn =
    std::function<ScenarioVerdict(const Scenario &)>;

/** Outcome of shrinking one failing scenario. */
struct ShrinkResult
{
    Scenario scenario;       //!< the minimized reproducer
    ScenarioVerdict verdict; //!< its (still-failing) verdict
    std::uint64_t runsUsed = 0;
};

/**
 * Greedy delta-debugging shrink: repeatedly try structural
 * reductions — dropping step chunks, halving repeats, dropping
 * faults, shrinking or disarming the storm, disarming the guard,
 * realigning the planted epoch — and keep any candidate that still
 * violates the *same* invariant. Runs until a fixpoint or until
 * @p run_budget evaluations have been spent.
 */
ShrinkResult shrinkScenario(const Scenario &sc,
                            const ScenarioVerdict &original,
                            const ScenarioRunFn &run,
                            std::uint64_t run_budget = 200);

} // namespace indra::check

#endif // INDRA_ORACLE_SCENARIO_HH
