/**
 * @file
 * Command-line helpers shared by the drivers and benches: the
 * checkpoint-scheme name parser and the --jobs knob. Every other
 * "key=value" setting goes through the NodeConfig key registry
 * (core/node_config.hh).
 */

#ifndef INDRA_SIM_CONFIG_READER_HH
#define INDRA_SIM_CONFIG_READER_HH

#include <string>
#include <vector>

#include "sim/config.hh"

namespace indra
{

/**
 * Parse a scheme name ("delta-backup", "domain-rewind", "none", ...).
 * Unknown names are fatal; the error names the originating setting
 * key (@p key, default "checkpointScheme") so a typo in a dotted
 * ablation file or a scenario JSON points back at its source.
 */
CheckpointScheme
checkpointSchemeFromName(const std::string &name,
                         const std::string &key = "checkpointScheme");

/**
 * Extract the experiment-harness parallelism knob from @p args:
 * "--jobs N", "--jobs=N", or "jobs=N" (all removed from @p args so
 * later key=value parsing never sees them). Falls back to the
 * INDRA_JOBS environment variable when no argument is given.
 *
 * @return the requested worker count, or 0 when unspecified (callers
 * pass 0 through to harness::ParallelSweep, which resolves it to
 * hardware_concurrency). A value of 1 requests the serial path.
 */
unsigned parseJobs(std::vector<std::string> &args);

} // namespace indra

#endif // INDRA_SIM_CONFIG_READER_HH
