/**
 * @file
 * NodeConfig: everything one revivable node is built from, in one
 * aggregate, and the one key registry through which every setting
 * reaches it.
 *
 * Each NodeConfig field registers exactly one "key=value" key — its
 * name, value syntax, one-line doc and typed setter with its range —
 * in a single table (core/node_config.cc) over the strict parsers of
 * sim/parse.hh. nodeSettings() lists the table (indra_cli --help
 * prints it). Unknown keys and malformed values are fatal errors
 * naming the offending key. A default NodeConfig is the default
 * node: empty fault plan, disarmed resilience, disarmed adversary —
 * the zero-cost-when-off contract.
 */

#ifndef INDRA_CORE_NODE_CONFIG_HH
#define INDRA_CORE_NODE_CONFIG_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary_config.hh"
#include "faults/fault_plan.hh"
#include "rca/rca_config.hh"
#include "resilience/resilience_config.hh"
#include "sim/config.hh"

namespace indra::core
{

/** One revivable node's complete build recipe. */
struct NodeConfig
{
    NodeConfig() = default;
    /**
     * Positional form NodeConfig{cfg, plan, rcfg} (or any prefix of
     * it), without partial-aggregate warnings.
     */
    explicit NodeConfig(SystemConfig system_cfg,
                        faults::FaultPlan fault_plan = {},
                        resilience::ResilienceConfig resilience_cfg = {})
        : system(std::move(system_cfg)), faults(std::move(fault_plan)),
          resilience(std::move(resilience_cfg))
    {
    }

    /** Hardware + checkpoint-scheme configuration (Table 4 knobs). */
    SystemConfig system;
    /** Fault-injection plan; empty (the default) creates no injector. */
    faults::FaultPlan faults;
    /** Overload-resilience knobs; disarmed by default. */
    resilience::ResilienceConfig resilience;
    /**
     * Default adaptive-attacker knobs for storms against this node.
     * IndraSystem itself never reads these; storm drivers seed
     * StormPlan.adversary from them so a fleet can arm its attackers
     * from the same dotted keys as everything else.
     */
    adversary::AdversaryConfig adversary;
    /**
     * Root-cause-analysis knobs for fault campaigns over this node.
     * Like the adversary block, IndraSystem never reads these; the
     * rca campaign runner and its benches consume them, and they live
     * here so the `rca.*` keys share the one registry.
     */
    rca::RcaConfig rca;
};

/** One registered key: the single way a value reaches its field. */
struct NodeSetting
{
    std::string key;
    /** Value syntax and range, e.g. "u32", "f64 in [0, 1]", "bool". */
    std::string syntax;
    /** One-line meaning. */
    std::string doc;
    /**
     * A well-formed value just outside the declared range, or "" when
     * the field's type is its only bound.
     */
    std::string outside;
    /** Parse @p value into the field; fatal naming the key otherwise. */
    std::function<void(NodeConfig &, const std::string &value)> apply;
};

/** Every registered key, grouped by family (the --help order). */
const std::vector<NodeSetting> &nodeSettings();

/** The registered key @p key, or nullptr. */
const NodeSetting *findNodeSetting(const std::string &key);

/**
 * Apply one "key=value" setting through the registry. Unknown keys
 * and malformed values are fatal, naming @p key.
 */
void applyNodeSetting(NodeConfig &node, const std::string &key,
                      const std::string &value);

/**
 * Apply every "key=value" token in @p settings; tokens without '='
 * are fatal, as are unknown keys.
 */
void applyNodeSettings(NodeConfig &node,
                       const std::vector<std::string> &settings);

} // namespace indra::core

#endif // INDRA_CORE_NODE_CONFIG_HH
