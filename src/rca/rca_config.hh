/**
 * @file
 * RcaConfig: the root-cause-analysis knobs, set through the `rca.*`
 * keys of the NodeConfig registry (core/node_config.cc).
 *
 * Lives in its own tiny library (indra_rca_config) so core's
 * NodeConfig can aggregate it without pulling the full rca subsystem
 * (which links check and the campaign machinery) into every node.
 * The defaults leave campaign behaviour unchanged — rca is an
 * analysis pass over runs, never a perturbation of them.
 */

#ifndef INDRA_RCA_RCA_CONFIG_HH
#define INDRA_RCA_RCA_CONFIG_HH

#include <cstdint>
#include <string>

namespace indra::rca
{

/** Knobs of the replay-based root-cause analysis pass. */
struct RcaConfig
{
    /**
     * Run the replay detector: re-execute the campaign's request
     * schedule on a fault-free golden twin (same node build, fault
     * plan stripped) and
     * flag every window whose outcome diverges. Off, only the faulted
     * run executes and no failures are attributed.
     */
    bool replay = true;

    /**
     * Compare the final service memory of the faulted run against the
     * golden twin's (check::RefMemory image diff), catching silent
     * state corruption no window-level signal ever showed.
     */
    bool memoryAudit = true;

    /**
     * Cycles of per-window timing skew (faulted vs golden) tolerated
     * before a window counts as diverged. Filters the few-cycle FIFO
     * occupancy jitter benign transport faults cause, while injected
     * verdict delays (100k+ cycles) stay far above it.
     */
    std::uint64_t latencySlack = 2000;

    /**
     * Scenario evaluations the greedy shrinker may spend minimizing
     * one escaped failure into a reproducer.
     */
    std::uint64_t shrinkBudget = 60;

    /**
     * Cap on how many reproducers get the shrink pass (0 = shrink
     * all). Every escaped failure still yields a reproducer that
     * round-trips through --replay; beyond the cap they carry the
     * unshrunk scenario, bounding campaign wall-clock when escapes
     * are plentiful.
     */
    std::uint64_t maxReproducers = 0;
};

/** Render as "replay=1 memory_audit=1 ..." (for bench headers). */
std::string describeRcaConfig(const RcaConfig &cfg);

} // namespace indra::rca

#endif // INDRA_RCA_RCA_CONFIG_HH
