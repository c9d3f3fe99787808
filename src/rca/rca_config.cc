#include "rca/rca_config.hh"

#include <sstream>

namespace indra::rca
{

std::string
describeRcaConfig(const RcaConfig &cfg)
{
    std::ostringstream os;
    os << "replay=" << (cfg.replay ? 1 : 0)
       << " memory_audit=" << (cfg.memoryAudit ? 1 : 0)
       << " latency_slack=" << cfg.latencySlack
       << " shrink_budget=" << cfg.shrinkBudget
       << " max_reproducers=" << cfg.maxReproducers;
    return os.str();
}

} // namespace indra::rca
