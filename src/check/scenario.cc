#include "check/scenario.hh"

#include <sstream>
#include <utility>

#include "check/checker.hh"
#include "check/json_reader.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "obs/json.hh"
#include "sim/config_reader.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace indra::check
{

std::uint64_t
Scenario::requestCount() const
{
    std::uint64_t n = 0;
    for (const ScenarioStep &s : steps)
        n += s.repeat;
    return n;
}

std::uint64_t
Scenario::firstAttackEpoch() const
{
    std::uint64_t epoch = 0;
    for (const ScenarioStep &s : steps) {
        if (s.attack != net::AttackKind::None)
            return epoch + 1;
        epoch += s.repeat;
    }
    return 0;
}

std::string
Scenario::describe() const
{
    std::uint64_t attacks = 0;
    for (const ScenarioStep &s : steps) {
        if (s.attack != net::AttackKind::None)
            attacks += s.repeat;
    }
    std::ostringstream os;
    os << "s" << seed << " " << daemon << " "
       << checkpointSchemeName(scheme) << " f=" << faults.size()
       << " a=" << attacks << "/" << requestCount();
    if (guardArmed)
        os << " guard";
    if (stormBurst)
        os << " storm" << stormBurst;
    if (adversaryBudget)
        os << " adv=" << adversary::adversaryStrategyName(adversaryStrategy)
           << "x" << adversaryBudget;
    if (rejuvenationTrigger != resilience::RejuvenationTrigger::None)
        os << " rj="
           << resilience::rejuvenationTriggerName(rejuvenationTrigger);
    if (domainCount)
        os << " dom=" << domainCount;
    if (plantAtEpoch)
        os << " plant@" << plantAtEpoch;
    return os.str();
}

std::string
Scenario::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"seed\": " << seed << ",\n  \"daemon\": ";
    obs::jsonString(os, daemon);
    os << ",\n  \"scheme\": ";
    obs::jsonString(os, checkpointSchemeName(scheme));
    os << ",\n  \"instr_per_request\": " << instrPerRequest
       << ",\n  \"macro_period\": " << macroPeriod
       << ",\n  \"fail_threshold\": " << failThreshold
       << ",\n  \"guard\": " << (guardArmed ? "true" : "false")
       << ",\n  \"storm_burst\": " << stormBurst
       << ",\n  \"storm_attack_rate\": " << stormAttackRate
       << ",\n  \"plant_at_epoch\": " << plantAtEpoch
       << ",\n  \"adversary_budget\": " << adversaryBudget
       << ",\n  \"adversary_strategy\": ";
    obs::jsonString(os, adversary::adversaryStrategyName(adversaryStrategy));
    os << ",\n  \"rejuvenation_trigger\": ";
    obs::jsonString(
        os, resilience::rejuvenationTriggerName(rejuvenationTrigger));
    os << ",\n  \"domain_count\": " << domainCount
       << ",\n  \"faults\": [";
    for (std::size_t i = 0; i < faults.size(); ++i) {
        os << (i ? ", " : "") << "{\"kind\": ";
        obs::jsonString(os, faults::faultKindName(faults[i].kind));
        os << ", \"rate\": " << faults[i].rate << ", \"magnitude\": "
           << faults[i].magnitude << "}";
    }
    os << "],\n  \"steps\": [";
    for (std::size_t i = 0; i < steps.size(); ++i) {
        os << (i ? ", " : "") << "{\"attack\": ";
        obs::jsonString(os, net::attackKindName(steps[i].attack));
        os << ", \"repeat\": " << steps[i].repeat << "}";
    }
    os << "]\n}\n";
    return os.str();
}

Scenario
Scenario::fromJson(const std::string &text)
{
    JsonValue doc = parseJson(text);
    if (doc.kind != JsonValue::Kind::Object)
        fatal("scenario JSON must be an object");
    Scenario sc;
    sc.seed = doc.u64("seed", sc.seed);
    sc.daemon = doc.str("daemon", sc.daemon);
    sc.scheme = checkpointSchemeFromName(
        doc.str("scheme", checkpointSchemeName(sc.scheme)), "scheme");
    sc.instrPerRequest =
        doc.u64("instr_per_request", sc.instrPerRequest);
    sc.macroPeriod = doc.u64("macro_period", sc.macroPeriod);
    sc.failThreshold = doc.u32("fail_threshold", sc.failThreshold);
    sc.guardArmed = doc.flag("guard", sc.guardArmed);
    sc.stormBurst = doc.u32("storm_burst", sc.stormBurst);
    sc.stormAttackRate =
        doc.num("storm_attack_rate", sc.stormAttackRate);
    sc.plantAtEpoch = doc.u64("plant_at_epoch", sc.plantAtEpoch);
    sc.adversaryBudget =
        doc.u64("adversary_budget", sc.adversaryBudget);
    sc.adversaryStrategy = adversary::adversaryStrategyFromName(
        doc.str("adversary_strategy",
                adversary::adversaryStrategyName(sc.adversaryStrategy)),
        "adversary_strategy");
    sc.rejuvenationTrigger = resilience::rejuvenationTriggerFromName(
        doc.str("rejuvenation_trigger",
                resilience::rejuvenationTriggerName(sc.rejuvenationTrigger)),
        "rejuvenation_trigger");
    // Absent in reproducer files written before the domain-rewind
    // scheme existed; those replay with the config default.
    sc.domainCount = doc.u32("domain_count", sc.domainCount);
    for (const JsonValue &f : doc.objects("faults")) {
        FaultSetting setting;
        // Required: an absent kind dies as an unknown kind ''.
        setting.kind = faults::faultKindFromName(
            f.str("kind", "", "faults[]."), "faults[].kind");
        // Fatal outside [0, 1], as FaultPlan::parse is.
        setting.rate = f.num("rate", 0.0, 0.0, 1.0, "faults[].");
        setting.magnitude = f.u64("magnitude", 0, "faults[].");
        sc.faults.push_back(setting);
    }
    for (const JsonValue &s : doc.objects("steps")) {
        ScenarioStep step;
        step.attack = net::attackKindFromName(
            s.str("attack", net::attackKindName(step.attack), "steps[]."),
            "steps[].attack");
        step.repeat = s.u32("repeat", 1, "steps[].");
        sc.steps.push_back(step);
    }
    return sc;
}

Scenario
makeScenario(std::uint64_t seed)
{
    Pcg32 rng(seed, 0x5eedf00d);
    Scenario sc;
    sc.seed = seed;

    static constexpr const char *daemons[] = {"httpd", "bind", "ftpd",
                                              "sendmail"};
    sc.daemon = daemons[rng.nextBounded(4)];

    // Weighted toward the paper's engine; the alternatives keep their
    // restore contracts honest too.
    static constexpr CheckpointScheme schemes[] = {
        CheckpointScheme::DeltaBackup,
        CheckpointScheme::DeltaBackup,
        CheckpointScheme::DeltaBackup,
        CheckpointScheme::VirtualCheckpoint,
        CheckpointScheme::MemoryUpdateLog,
        CheckpointScheme::SoftwareCheckpoint,
    };
    sc.scheme = schemes[rng.nextBounded(6)];
    sc.macroPeriod = 3 + rng.nextBounded(8);
    sc.failThreshold = 1 + rng.nextBounded(3);

    if (rng.bernoulli(0.6)) {
        static constexpr double rates[] = {0.05, 0.15, 0.4};
        std::uint32_t n = 1 + (rng.bernoulli(0.35) ? 1 : 0);
        const auto &kinds = faults::allFaultKinds();
        for (std::uint32_t i = 0; i < n; ++i) {
            FaultSetting setting;
            setting.kind = kinds[rng.nextBounded(
                static_cast<std::uint32_t>(kinds.size()))];
            setting.rate = rates[rng.nextBounded(3)];
            setting.magnitude =
                setting.kind == faults::FaultKind::MonitorDelay
                    ? 20000
                    : 0;
            bool dup = false;
            for (const FaultSetting &have : sc.faults)
                dup = dup || have.kind == setting.kind;
            if (!dup)
                sc.faults.push_back(setting);
        }
    }

    sc.guardArmed = rng.bernoulli(0.35);
    if (sc.guardArmed && rng.bernoulli(0.5)) {
        sc.stormBurst = 4u << rng.nextBounded(3);
        sc.stormAttackRate = 10.0 * (1 + rng.nextBounded(4));
    }

    std::uint32_t nsteps = 3 + rng.nextBounded(6);
    for (std::uint32_t i = 0; i < nsteps; ++i) {
        ScenarioStep step;
        static constexpr net::AttackKind attacks[] = {
            net::AttackKind::StackSmash,
            net::AttackKind::CodeInjection,
            net::AttackKind::FuncPtrHijack,
            net::AttackKind::FormatString,
            net::AttackKind::DosFlood,
            net::AttackKind::Dormant,
        };
        std::uint32_t pick = rng.nextBounded(11);
        if (pick >= 5)
            step.attack = attacks[pick - 5];
        step.repeat = 1 + rng.nextBounded(4);
        sc.steps.push_back(step);
    }

    // Closed-loop extensions ride on guarded storms only, and their
    // draws come last: every field drawn above is identical to what
    // the same seed produced before the adversary existed.
    if (sc.stormBurst) {
        if (rng.bernoulli(0.5)) {
            static constexpr adversary::AdversaryStrategy strategies[] = {
                adversary::AdversaryStrategy::Fixed,
                adversary::AdversaryStrategy::ProbeBurst,
                adversary::AdversaryStrategy::Reinfect,
                adversary::AdversaryStrategy::LatencyTuner,
            };
            sc.adversaryStrategy = strategies[rng.nextBounded(4)];
            sc.adversaryBudget = 8ull << rng.nextBounded(3);
        }
        if (rng.bernoulli(0.4)) {
            static constexpr resilience::RejuvenationTrigger triggers[] = {
                resilience::RejuvenationTrigger::Periodic,
                resilience::RejuvenationTrigger::Epoch,
                resilience::RejuvenationTrigger::Suspicion,
            };
            sc.rejuvenationTrigger = triggers[rng.nextBounded(3)];
        }
    }

    // Domain-rewind draws come last of all: every field drawn above is
    // identical to what the same seed produced before this scheme
    // existed, so old reproducers keep meaning the same thing.
    if (rng.bernoulli(0.25)) {
        sc.scheme = CheckpointScheme::DomainRewind;
        sc.domainCount = 2 + rng.nextBounded(3);
        if (rng.bernoulli(0.5)) {
            // A cross-domain-tainting attack exercises the escalation
            // boundary past the confined rewind.
            sc.steps.push_back({net::AttackKind::CodeInjection, 1});
        }
    }
    return sc;
}

Scenario
makePlantedScenario(std::uint64_t seed)
{
    Scenario sc;
    sc.seed = seed;
    sc.daemon = "httpd";
    sc.scheme = CheckpointScheme::DeltaBackup;
    // Keep the ladder at the micro level (the planted miss is only
    // visible against the epoch image) and macro captures rare.
    sc.failThreshold = 4;
    sc.macroPeriod = 50;
    sc.steps = {
        {net::AttackKind::None, 2},
        {net::AttackKind::StackSmash, 1},
        {net::AttackKind::None, 2},
        {net::AttackKind::FuncPtrHijack, 1},
        {net::AttackKind::StackSmash, 2},
    };
    // Plant at the first attack's epoch: the detection-triggered
    // micro rollback cannot repair a byte the backup engine never
    // saw change.
    sc.plantAtEpoch = sc.firstAttackEpoch();
    return sc;
}

Scenario
makePlantedDomainScenario(std::uint64_t seed)
{
    Scenario sc;
    sc.seed = seed;
    sc.daemon = "httpd";
    sc.scheme = CheckpointScheme::DomainRewind;
    // Two domains and a benign warm-up: the seq round-robin walks
    // both compartments over the data pages before the attack, so the
    // planted page is shared (or foreign-owned) by the time the
    // confined rewind runs — a rewind is not allowed to repair it,
    // and the post-recovery compare must flag the unexplained flip.
    sc.domainCount = 2;
    sc.failThreshold = 4;
    sc.macroPeriod = 50;
    sc.steps = {
        {net::AttackKind::None, 4},
        {net::AttackKind::StackSmash, 1},
        {net::AttackKind::None, 1},
        {net::AttackKind::StackSmash, 1},
    };
    sc.plantAtEpoch = sc.firstAttackEpoch();
    return sc;
}

core::NodeConfig
nodeConfigFor(const Scenario &sc)
{
    SystemConfig cfg;
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    cfg.rngSeed = sc.seed;
    cfg.checkpointScheme = sc.scheme;
    cfg.macroCheckpointPeriod = sc.macroPeriod;
    cfg.consecutiveFailureThreshold = sc.failThreshold;
    if (sc.domainCount)
        cfg.domainCount = sc.domainCount;

    faults::FaultPlan plan;
    plan.setSeed(sc.seed);
    for (const FaultSetting &f : sc.faults)
        plan.add(f.kind, f.rate, f.magnitude);

    resilience::ResilienceConfig rcfg;
    if (sc.guardArmed) {
        rcfg.queueBound = 8;
        rcfg.tokensPerMCycle[static_cast<std::size_t>(
            net::ClientClass::Bulk)] = 40.0;
        rcfg.tokenBurst[static_cast<std::size_t>(
            net::ClientClass::Bulk)] = 10.0;
        rcfg.fifoHighWater = 24;
    }
    if (sc.rejuvenationTrigger != resilience::RejuvenationTrigger::None) {
        rcfg.rejuvenation.trigger = sc.rejuvenationTrigger;
        // Scaled down so short fuzz runs actually cross the firing
        // boundary at least once.
        rcfg.rejuvenation.period = 400000;
        rcfg.rejuvenation.epochLimit = 4;
        rcfg.rejuvenation.suspicionThreshold = 4.0;
        rcfg.rejuvenation.cooldown = 100000;
    }

    return core::NodeConfig{cfg, std::move(plan), rcfg};
}

std::vector<net::ServiceRequest>
scenarioRequests(const Scenario &sc)
{
    std::vector<net::ServiceRequest> requests;
    requests.reserve(sc.requestCount());
    for (const ScenarioStep &step : sc.steps) {
        for (std::uint32_t r = 0; r < step.repeat; ++r) {
            net::ServiceRequest req;
            req.seq = requests.size() + 1;
            req.attack = step.attack;
            requests.push_back(req);
        }
    }
    return requests;
}

ScenarioVerdict
runScenario(const Scenario &sc)
{
    core::IndraSystem sys(nodeConfigFor(sc));
    SystemChecker checker(sys);
    PlantedBugSink plantedSink(checker, sys, sc.plantAtEpoch);
    sys.attachChecker(sc.plantAtEpoch
                          ? static_cast<CheckSink *>(&plantedSink)
                          : &checker);
    sys.boot();

    net::DaemonProfile profile = net::daemonByName(sc.daemon);
    profile.instrPerRequest = sc.instrPerRequest;
    std::size_t slot = sys.deployService(profile);

    ScenarioVerdict verdict;
    for (const net::ServiceRequest &req : scenarioRequests(sc)) {
        sys.processRequest(slot, req);
        ++verdict.requests;
    }

    if (sc.stormBurst) {
        resilience::StormPlan splan;
        splan.seed = sc.seed;
        splan.legitRequests = 16;
        splan.legitRatePerMCycle = 20.0;
        splan.attackRatePerMCycle = sc.stormAttackRate;
        splan.burstLen = sc.stormBurst;
        splan.attackKind = net::AttackKind::DosFlood;
        if (sc.adversaryBudget) {
            splan.adversary.armed = true;
            splan.adversary.strategy = sc.adversaryStrategy;
            splan.adversary.budget = sc.adversaryBudget;
            splan.adversary.burstLen = sc.stormBurst;
            splan.adversary.baseGap = 100000;
            splan.adversary.reinfectDelay = 2000;
            // Reinfect plants dormant damage, exercising the
            // rejuvenation-clears-dormant oracle; the others probe the
            // admission path.
            splan.adversary.payload =
                sc.adversaryStrategy ==
                        adversary::AdversaryStrategy::Reinfect
                    ? net::AttackKind::StackSmash
                    : net::AttackKind::DosFlood;
        }
        resilience::StormReport report =
            core::runStorm(sys, slot, splan);
        verdict.requests += report.executed;
    }

    verdict.checks = checker.checksRun();
    verdict.violations = checker.violations().size();
    if (!checker.ok()) {
        const Violation &first = checker.violations().front();
        verdict.violated = true;
        verdict.invariant = first.id;
        verdict.epoch = first.epoch;
        verdict.tick = first.tick;
        verdict.detail = first.detail;
    }
    return verdict;
}

namespace
{

bool
sameFailure(const ScenarioVerdict &v, const ScenarioVerdict &orig)
{
    return v.violated && v.invariant == orig.invariant;
}

} // anonymous namespace

ShrinkResult
shrinkScenario(const Scenario &sc, const ScenarioVerdict &original,
               const ScenarioRunFn &run, std::uint64_t run_budget)
{
    ShrinkResult res{sc, original, 0};

    // Accept a candidate iff it still violates the same invariant.
    auto attempt = [&](Scenario cand) -> bool {
        if (cand == res.scenario || res.runsUsed >= run_budget)
            return false;
        ++res.runsUsed;
        ScenarioVerdict v = run(cand);
        if (!sameFailure(v, original))
            return false;
        res.scenario = std::move(cand);
        res.verdict = std::move(v);
        return true;
    };

    // A planted scenario usually only reproduces when the plant epoch
    // lands on an attack request, so every structural reduction is
    // also tried with the plant realigned to the first attack.
    auto attemptAligned = [&](Scenario cand) -> bool {
        Scenario aligned = cand;
        if (aligned.plantAtEpoch) {
            std::uint64_t first = aligned.firstAttackEpoch();
            if (first)
                aligned.plantAtEpoch = first;
        }
        if (attempt(cand))
            return true;
        return aligned != cand && attempt(std::move(aligned));
    };

    bool changed = true;
    while (changed && res.runsUsed < run_budget) {
        changed = false;

        // Drop whole chunks of the schedule, largest cuts first.
        for (std::size_t chunk = res.scenario.steps.size();
             chunk >= 1; chunk /= 2) {
            bool cut = true;
            while (cut) {
                cut = false;
                const auto &steps = res.scenario.steps;
                for (std::size_t start = 0;
                     start + chunk <= steps.size(); ++start) {
                    Scenario cand = res.scenario;
                    cand.steps.erase(
                        cand.steps.begin() +
                            static_cast<std::ptrdiff_t>(start),
                        cand.steps.begin() +
                            static_cast<std::ptrdiff_t>(start + chunk));
                    if (attemptAligned(std::move(cand))) {
                        cut = true;
                        changed = true;
                        break;
                    }
                }
            }
            if (chunk == 1)
                break;
        }

        // Shrink burst sizes: halve repeats, and when halving
        // overshoots the failure threshold fall back to stepping
        // down by one, so a repeat of 4 can still reach 3.
        for (std::size_t i = 0; i < res.scenario.steps.size(); ++i) {
            while (res.scenario.steps[i].repeat > 1) {
                Scenario cand = res.scenario;
                cand.steps[i].repeat = cand.steps[i].repeat / 2;
                if (attemptAligned(std::move(cand))) {
                    changed = true;
                    continue;
                }
                cand = res.scenario;
                cand.steps[i].repeat -= 1;
                if (!attemptAligned(std::move(cand)))
                    break;
                changed = true;
            }
        }

        // Drop fault sites one at a time.
        for (std::size_t i = 0; i < res.scenario.faults.size();) {
            Scenario cand = res.scenario;
            cand.faults.erase(cand.faults.begin() +
                              static_cast<std::ptrdiff_t>(i));
            if (attemptAligned(std::move(cand)))
                changed = true;
            else
                ++i;
        }

        // Adaptive adversary: disarm, else halve the budget.
        if (res.scenario.adversaryBudget) {
            Scenario cand = res.scenario;
            cand.adversaryBudget = 0;
            if (attemptAligned(std::move(cand))) {
                changed = true;
            } else if (res.scenario.adversaryBudget > 1) {
                cand = res.scenario;
                cand.adversaryBudget /= 2;
                if (attemptAligned(std::move(cand)))
                    changed = true;
            }
        }

        // Proactive rejuvenation: try reverting to reactive-only.
        if (res.scenario.rejuvenationTrigger !=
            resilience::RejuvenationTrigger::None) {
            Scenario cand = res.scenario;
            cand.rejuvenationTrigger =
                resilience::RejuvenationTrigger::None;
            if (attemptAligned(std::move(cand)))
                changed = true;
        }

        // Storm phase: disarm entirely, else halve the burst.
        if (res.scenario.stormBurst) {
            Scenario cand = res.scenario;
            cand.stormBurst = 0;
            cand.stormAttackRate = 0.0;
            cand.adversaryBudget = 0;
            if (attemptAligned(std::move(cand))) {
                changed = true;
            } else if (res.scenario.stormBurst > 1) {
                cand = res.scenario;
                cand.stormBurst /= 2;
                if (attemptAligned(std::move(cand)))
                    changed = true;
            }
        }

        // Guard: try disarming.
        if (res.scenario.guardArmed) {
            Scenario cand = res.scenario;
            cand.guardArmed = false;
            cand.stormBurst = 0;
            cand.stormAttackRate = 0.0;
            cand.adversaryBudget = 0;
            if (attemptAligned(std::move(cand)))
                changed = true;
        }

        // Domain rewind: fewer domains, then fall back to the paper's
        // base engine (a failure that survives on plain delta-backup
        // was never about the domain machinery).
        if (res.scenario.scheme == CheckpointScheme::DomainRewind) {
            if (res.scenario.domainCount > 2) {
                Scenario cand = res.scenario;
                cand.domainCount = 2;
                if (attemptAligned(std::move(cand)))
                    changed = true;
            }
            Scenario cand = res.scenario;
            cand.scheme = CheckpointScheme::DeltaBackup;
            cand.domainCount = 0;
            if (attemptAligned(std::move(cand)))
                changed = true;
        }

        // Pull the planted epoch toward the front.
        if (res.scenario.plantAtEpoch > 1) {
            Scenario cand = res.scenario;
            std::uint64_t first = cand.firstAttackEpoch();
            cand.plantAtEpoch =
                first ? first : cand.plantAtEpoch / 2;
            if (attempt(std::move(cand)))
                changed = true;
        }
    }
    return res;
}

} // namespace indra::check
