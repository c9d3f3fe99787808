#include "sim/config_reader.hh"

#include <array>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace indra
{

CheckpointScheme
checkpointSchemeFromName(const std::string &name, const std::string &key)
{
    static constexpr std::array<CheckpointScheme, 6> all = {
        CheckpointScheme::DeltaBackup,
        CheckpointScheme::VirtualCheckpoint,
        CheckpointScheme::MemoryUpdateLog,
        CheckpointScheme::SoftwareCheckpoint,
        CheckpointScheme::DomainRewind,
        CheckpointScheme::None,
    };
    return parseEnum("setting '" + key + "'", "checkpoint scheme", name,
                     all, checkpointSchemeName);
}

namespace
{

unsigned
toJobs(const std::string &key, const std::string &value)
{
    // A negative count is a mistake about meaning, not syntax.
    fatal_if(!value.empty() && value[0] == '-',
             "setting '", key, "': '", value,
             "' is not a valid worker count");
    return parseU32("setting '" + key + "'", value, 0, 1024);
}

} // anonymous namespace

unsigned
parseJobs(std::vector<std::string> &args)
{
    unsigned jobs = 0;
    if (const char *env = std::getenv("INDRA_JOBS"))
        jobs = toJobs("INDRA_JOBS", env);
    for (auto it = args.begin(); it != args.end();) {
        std::string value;
        if (*it == "--jobs") {
            fatal_if(it + 1 == args.end(), "--jobs needs a value");
            value = *(it + 1);
            it = args.erase(it, it + 2);
        } else if (it->rfind("--jobs=", 0) == 0) {
            value = it->substr(7);
            it = args.erase(it);
        } else if (it->rfind("jobs=", 0) == 0) {
            value = it->substr(5);
            it = args.erase(it);
        } else {
            ++it;
            continue;
        }
        jobs = toJobs("--jobs", value);
    }
    return jobs;
}

} // namespace indra
