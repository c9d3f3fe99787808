#include "core/node_config.hh"

#include <limits>
#include <sstream>
#include <type_traits>

#include "sim/config_reader.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace indra::core
{

/** Accessor of one NodeConfig field, for the table below. */
#define FIELD(path) [](NodeConfig &n) -> auto & { return n.path; }

namespace
{

std::string
what(const std::string &key)
{
    return "setting '" + key + "'";
}

template <typename T>
std::string
text(T v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

struct Table
{
    std::vector<NodeSetting> keys;

    /**
     * A number or bool field; the parser follows the field's type, so
     * a key can never be parsed wider than the field it sets.
     */
    template <typename Field,
              typename T = std::remove_reference_t<
                  std::invoke_result_t<Field, NodeConfig &>>>
    void
    num(const std::string &key, const std::string &doc, Field field,
        std::type_identity_t<T> lo = 0,
        std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
        bool lo_open = false)
    {
        std::string syntax, outside;
        if constexpr (std::is_same_v<T, bool>) {
            syntax = "bool";
        } else if constexpr (std::is_same_v<T, double>) {
            syntax = "f64 in " + f64Range(lo, hi, lo_open);
            outside = hi != std::numeric_limits<T>::max()
                          ? text(hi + 1)
                          : text(lo_open ? lo : lo - 1);
        } else {
            static_assert(std::is_same_v<T, std::uint32_t> ||
                          std::is_same_v<T, std::uint64_t>);
            syntax = sizeof(T) == 4 ? "u32" : "u64";
            if (lo > 0) {
                syntax += " >= " + text(lo);
                outside = text(lo - 1);
            }
        }
        keys.push_back({key, syntax, doc, outside,
                        [=](NodeConfig &n, const std::string &v) {
            if constexpr (std::is_same_v<T, bool>)
                field(n) = parseBool(what(key), v);
            else if constexpr (std::is_same_v<T, double>)
                field(n) = parseF64(what(key), v, lo, hi, lo_open);
            else if constexpr (std::is_same_v<T, std::uint32_t>)
                field(n) = parseU32(what(key), v, lo, hi);
            else
                field(n) = parseU64(what(key), v, lo, hi);
        }});
    }

    /** A field parsed by @p parse(value, key) (enums, specs). */
    template <typename Field, typename Parse>
    void
    parsed(const std::string &key, const std::string &syntax,
           const std::string &doc, Field field, Parse parse)
    {
        keys.push_back({key, syntax, doc, "",
                        [=](NodeConfig &n, const std::string &v) {
                            field(n) = parse(v, key);
                        }});
    }
};

std::vector<NodeSetting>
buildTable()
{
    Table t;
    constexpr double inf = std::numeric_limits<double>::max();

    // ------------------------------------- SystemConfig (Table 4)
    t.num("numResurrectees", "resurrectee cores",
          FIELD(system.numResurrectees));
    t.num("fetchWidth", "instructions fetched per cycle",
          FIELD(system.fetchWidth));
    t.num("commitWidth", "instructions committed per cycle",
          FIELD(system.commitWidth));
    t.num("coreClockMHz", "core clock, MHz", FIELD(system.coreClockMHz));
    t.num("physMemBytes", "physical memory for resurrectees, bytes",
          FIELD(system.physMemBytes));
    t.num("traceFifoEntries", "resurrectee->resurrector trace FIFO entries",
          FIELD(system.traceFifoEntries));
    t.num("filterCamEntries", "code-origin filter CAM entries (0 = off)",
          FIELD(system.filterCamEntries));
    t.num("codeOriginCheckCycles", "resurrector cycles per code-origin check",
          FIELD(system.codeOriginCheckCycles));
    t.num("callReturnCheckCycles", "resurrector cycles per call/return record",
          FIELD(system.callReturnCheckCycles));
    t.num("ctrlTransferCheckCycles",
          "resurrector cycles per control-transfer record",
          FIELD(system.ctrlTransferCheckCycles));
    t.num("recordDequeueCycles", "fixed resurrector cost per dequeued record",
          FIELD(system.recordDequeueCycles));
    t.num("backupLineBytes", "delta-backup granularity, bytes",
          FIELD(system.backupLineBytes));
    t.num("backupRecordFetchCycles",
          "cycles to fetch a backup page record missing from the TLB",
          FIELD(system.backupRecordFetchCycles));
    t.num("rollbackArmCycles", "cycles to arm one backup page record",
          FIELD(system.rollbackArmCycles));
    t.num("pageRemapCycles", "cycles to update one page translation",
          FIELD(system.pageRemapCycles));
    t.num("logUndoCycles", "per-entry update-log undo cost",
          FIELD(system.logUndoCycles));
    t.num("logAppendCycles", "per-store update-log append cost",
          FIELD(system.logAppendCycles));
    t.num("writeProtectFaultCycles",
          "software-checkpoint write-protect fault cost",
          FIELD(system.writeProtectFaultCycles));
    t.num("pageCopySetupCycles", "per-page setup cost of a page copy",
          FIELD(system.pageCopySetupCycles));
    t.num("macroCheckpointPeriod", "macro checkpoint period, requests",
          FIELD(system.macroCheckpointPeriod));
    t.num("consecutiveFailureThreshold",
          "micro-recovery failures before macro rollback",
          FIELD(system.consecutiveFailureThreshold));
    t.num("recoveryInterruptCycles",
          "resurrector->resurrectee interrupt + flush cost",
          FIELD(system.recoveryInterruptCycles));
    t.num("serviceRestartCycles", "full service restart cost without INDRA",
          FIELD(system.serviceRestartCycles));
    t.num("rngSeed", "simulation RNG seed", FIELD(system.rngSeed));
    t.num("monitorEnabled", "run the security monitor",
          FIELD(system.monitorEnabled));
    t.num("asymmetricMode", "asymmetric privilege configuration",
          FIELD(system.asymmetricMode));
    t.num("sharedResurrector", "one resurrector time-sliced across cores",
          FIELD(system.sharedResurrector));
    t.num("eagerRollback", "complete rollback eagerly at recovery",
          FIELD(system.eagerRollback));
    t.parsed("checkpointScheme",
             "delta-backup|virtual-checkpoint|memory-update-log|"
             "software-checkpoint|domain-rewind|none",
             "memory-state backup engine", FIELD(system.checkpointScheme),
             checkpointSchemeFromName);

    // ------------------------------------------------ domain rewind
    t.num("domain.count", "isolated domains per service (domain-rewind)",
          FIELD(system.domainCount));
    t.num("domain.rewind_setup_cycles", "fixed cost of a confined rewind",
          FIELD(system.domainRewindSetupCycles));
    t.num("domain.heal_streak", "served requests healing a degraded domain",
          FIELD(resilience.domainHealStreak), 1);

    // ----------------------------------------------- fault injection
    t.keys.push_back(
        {"faults.plan", "kind:rate[:magnitude],...",
         "fault-injection plan, e.g. delta-flip:0.01", "",
         [](NodeConfig &n, const std::string &v) {
             n.faults = faults::FaultPlan::parse(v, n.faults.seed());
         }});

    // ------------------------------------------ overload resilience
    t.num("resilience.queue_bound", "accept-queue bound (0 = off)",
          FIELD(resilience.queueBound));
    t.num("resilience.fifo_high_water", "backpressure engage mark (0 = off)",
          FIELD(resilience.fifoHighWater));
    t.num("resilience.fifo_low_water", "backpressure drain mark (0 = high/2)",
          FIELD(resilience.fifoLowWater));
    t.num("resilience.degrade_violations", "violations -> Degraded",
          FIELD(resilience.degradeViolations));
    t.num("resilience.quarantine_fail_streak", "fail streak -> Quarantined",
          FIELD(resilience.quarantineFailStreak));
    t.num("resilience.heal_served_streak", "serve streak -> Healthy",
          FIELD(resilience.healServedStreak));
    t.num("resilience.degrade_queue_fraction",
          "queue fraction of the bound marking Degraded",
          FIELD(resilience.degradeQueueFraction), 0.0, 1.0);
    t.num("resilience.resource_pressure_pages",
          "heap-growth allowance before Degraded (0 = off)",
          FIELD(resilience.resourcePressurePages));
    for (std::size_t c = 0; c < net::clientClassCount; ++c) {
        std::string cls =
            net::clientClassName(static_cast<net::ClientClass>(c));
        t.num("resilience.tokens." + cls,
              "token refill per Mcycle, " + cls + " clients (0 = off)",
              [c](NodeConfig &n) -> double & {
                  return n.resilience.tokensPerMCycle[c];
              },
              0.0);
        t.num("resilience.burst." + cls,
              "token bucket depth, " + cls + " clients",
              [c](NodeConfig &n) -> double & {
                  return n.resilience.tokenBurst[c];
              },
              0.0);
    }

    // --------------------------------------- proactive rejuvenation
    t.parsed("rejuvenation.trigger", "none|periodic|epoch|suspicion",
             "proactive restore trigger (arms the policy)",
             FIELD(resilience.rejuvenation.trigger),
             resilience::rejuvenationTriggerFromName);
    t.num("rejuvenation.period", "periodic: cycles between restores",
          FIELD(resilience.rejuvenation.period), 1);
    t.num("rejuvenation.epochs", "epoch: macro epochs between restores",
          FIELD(resilience.rejuvenation.epochLimit), 1);
    t.num("rejuvenation.threshold", "suspicion: score firing a restore",
          FIELD(resilience.rejuvenation.suspicionThreshold), 0.0, inf,
          true);
    t.num("rejuvenation.decay", "suspicion: score drop per served request",
          FIELD(resilience.rejuvenation.suspicionDecay), 0.0);
    t.num("rejuvenation.cooldown", "min cycles between proactive restores",
          FIELD(resilience.rejuvenation.cooldown));

    // -------------------------------------------- adaptive adversary
    t.keys.push_back(
        {"adversary.strategy", "fixed|probe-burst|reinfect|latency-tuner",
         "attacker strategy (arms the attacker)", "",
         [](NodeConfig &n, const std::string &v) {
             n.adversary.strategy = adversary::adversaryStrategyFromName(
                 v, "adversary.strategy");
             n.adversary.armed = true;
         }});
    t.num("adversary.budget", "total malicious requests to spend",
          FIELD(adversary.budget));
    t.num("adversary.burst", "requests per burst",
          FIELD(adversary.burstLen), 1);
    t.num("adversary.spacing", "cycles between requests in a burst",
          FIELD(adversary.burstSpacing));
    t.num("adversary.gap", "base inter-move gap, cycles",
          FIELD(adversary.baseGap), 1);
    t.parsed("adversary.payload", "attack kind",
             "attack kind carried by bursts", FIELD(adversary.payload),
             net::attackKindFromName);
    t.num("adversary.occupancy_fraction",
          "probe-burst: burst when FIFO >= frac * high water",
          FIELD(adversary.occupancyFraction), 0.0, 1.0);
    t.num("adversary.gap_factor", "latency-tuner: gap = estimate * f",
          FIELD(adversary.gapFactor), 0.0, inf, true);
    t.num("adversary.min_gap", "latency-tuner: gap floor, cycles",
          FIELD(adversary.minGap));
    t.num("adversary.reinfect_delay",
          "reinfect: re-plant delay after a revival, cycles",
          FIELD(adversary.reinfectDelay));

    // ------------------------------------------- root-cause analysis
    t.num("rca.replay", "run the golden-twin replay detector",
          FIELD(rca.replay));
    t.num("rca.memory_audit", "diff final faulted vs golden memory",
          FIELD(rca.memoryAudit));
    t.num("rca.latency_slack", "per-window cycle skew tolerated",
          FIELD(rca.latencySlack));
    t.num("rca.shrink_budget", "shrinker evaluations per reproducer",
          FIELD(rca.shrinkBudget));
    t.num("rca.max_reproducers", "cap on shrunk reproducers (0 = all)",
          FIELD(rca.maxReproducers));
    return t.keys;
}

} // anonymous namespace

#undef FIELD

const std::vector<NodeSetting> &
nodeSettings()
{
    static const std::vector<NodeSetting> table = buildTable();
    return table;
}

const NodeSetting *
findNodeSetting(const std::string &key)
{
    for (const NodeSetting &s : nodeSettings()) {
        if (s.key == key)
            return &s;
    }
    return nullptr;
}

void
applyNodeSetting(NodeConfig &node, const std::string &key,
                 const std::string &value)
{
    if (const NodeSetting *s = findNodeSetting(key)) {
        s->apply(node, value);
        return;
    }
    // A typo inside a known family lists that family's keys.
    std::string family = key.substr(0, key.rfind('.') + 1), siblings;
    for (const NodeSetting &s : nodeSettings()) {
        if (!family.empty() && s.key.rfind(family, 0) == 0 &&
            s.key.find('.', family.size()) == std::string::npos) {
            siblings += siblings.empty() ? "" : ", ";
            siblings += s.key.substr(family.size());
        }
    }
    fatal("unknown config setting '", key, "'",
          siblings.empty() ? ""
                           : " (" + family + "* keys: " + siblings + ")");
}

void
applyNodeSettings(NodeConfig &node,
                  const std::vector<std::string> &settings)
{
    for (const std::string &tok : settings) {
        std::size_t eq = tok.find('=');
        fatal_if(eq == std::string::npos,
                 "node setting '", tok, "' is not key=value");
        applyNodeSetting(node, tok.substr(0, eq), tok.substr(eq + 1));
    }
}

} // namespace indra::core
