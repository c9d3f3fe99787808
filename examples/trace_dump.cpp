/**
 * @file
 * Developer tool: dump the MiniIsa instruction stream a daemon's
 * request generator produces, with the monitor-relevant events
 * annotated. Useful for inspecting workload shape and for debugging
 * new exploit payloads.
 *
 *   trace_dump [daemon=httpd] [count=200] [attack=benign] [seed=1]
 */

#include <iostream>
#include <string>
#include <vector>

#include "net/daemon_profile.hh"
#include "net/workload.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

using namespace indra;

namespace
{

std::string
arg(const std::vector<std::string> &args, const std::string &key,
    const std::string &fallback)
{
    for (const auto &a : args) {
        if (a.rfind(key + "=", 0) == 0)
            return a.substr(key.size() + 1);
    }
    return fallback;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    net::DaemonProfile profile =
        net::daemonByName(arg(args, "daemon", "httpd"));
    profile.instrPerRequest = 4000;  // small for inspection
    std::uint64_t count = parseU64("count", arg(args, "count", "200"));
    net::AttackKind kind =
        net::attackKindFromName(arg(args, "attack", "benign"));
    std::uint64_t seed = parseU64("seed", arg(args, "seed", "1"));

    net::ServiceApplication app(profile, seed, 4096);
    net::ServiceRequest req;
    req.seq = 1;
    req.attack = kind;
    auto gen = app.beginRequest(req);

    std::cout << "# " << profile.name << " request, payload "
              << net::attackKindName(kind) << ", seed " << seed
              << "\n";
    cpu::Instruction inst;
    std::uint64_t shown = 0;
    std::uint64_t skipped = 0;
    while (gen.next(inst)) {
        bool interesting = inst.op != cpu::Op::Alu;
        if (shown < count || interesting) {
            if (skipped) {
                std::cout << "  ... " << skipped << " alu ...\n";
                skipped = 0;
            }
            std::cout << inst.toString() << "\n";
            ++shown;
        } else {
            ++skipped;
        }
        if (shown > count * 4)
            break;  // keep the dump bounded for attack streams
    }
    std::cout << "# emitted " << gen.emitted() << " instructions\n";
    return 0;
}
