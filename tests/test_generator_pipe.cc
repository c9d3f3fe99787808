/** @file Tests for the generator pipe: where the consumer stops, what
 * the helper is doing when its thread or process exits, how many
 * helpers a cluster starts, and forked children. The stream it carries
 * is checked field for field against next() by
 * StreamPin.ThePipeRetiresEveryPinnedStream (test_workload.cc). */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "cluster/cluster.hh"
#include "core/node_config.hh"
#include "net/daemon_profile.hh"
#include "net/generator_pipe.hh"
#include "net/workload.hh"
#include "sim/random.hh"

using namespace indra;
using net::GeneratorPipe;
using net::RequestExecution;

namespace
{

constexpr std::uint32_t chunk = GeneratorPipe::chunkInstrs;
constexpr std::uint32_t ring = GeneratorPipe::ringChunks;

/** One daemon's program and draw plan, and requests drawn from it. */
struct Service
{
    explicit Service(std::uint64_t instr_per_request)
        : profile(withLength(instr_per_request)), prog(profile, 3, 4096),
          plan(prog, 4096)
    {
    }

    static net::DaemonProfile
    withLength(std::uint64_t instr)
    {
        net::DaemonProfile p = net::daemonByName("httpd");
        p.instrPerRequest = instr;
        return p;
    }

    RequestExecution
    request(std::uint64_t seed) const
    {
        return RequestExecution(plan, Pcg32(seed, 0x9e37ULL + seed),
                                net::AttackKind::None, false);
    }

    /** The whole stream of request @p seed, by next(). */
    std::vector<cpu::Instruction>
    stream(std::uint64_t seed) const
    {
        RequestExecution gen = request(seed);
        std::vector<cpu::Instruction> out;
        cpu::Instruction inst;
        while (gen.next(inst))
            out.push_back(inst);
        return out;
    }

    net::DaemonProfile profile;
    net::ServiceProgram prog;
    net::DrawPlan plan;
};

bool
same(const cpu::Instruction &a, const cpu::Instruction &b)
{
    return a.op == b.op && a.pc == b.pc && a.target == b.target &&
        a.effAddr == b.effAddr && a.value == b.value && a.imm == b.imm &&
        a.bytes == b.bytes;
}

/** Retire request @p seed through this thread's pipe, stopping after
 *  instruction @p stop_at (0-based; never stops when past the end). */
std::vector<cpu::Instruction>
retire(const Service &svc, std::uint64_t seed, std::size_t stop_at)
{
    RequestExecution gen = svc.request(seed);
    std::vector<cpu::Instruction> got;
    GeneratorPipe::local().run(gen, [&](const cpu::Instruction &inst) {
        got.push_back(inst);
        return got.size() <= stop_at;
    });
    return got;
}

bool
isPrefix(const std::vector<cpu::Instruction> &got,
         const std::vector<cpu::Instruction> &ref)
{
    if (got.size() > ref.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!same(got[i], ref[i]))
            return false;
    }
    return true;
}

/** Where the consumer is when it leaves a request. */
enum class Leave
{
    AtTheEnd,      //!< after the whole stream: the helper is idle
    MidChunk,      //!< early in the ring, the helper still drawing
    OnAFullRing,   //!< the helper blocked on a full ring
};

/**
 * Retire a long request on this thread's pipe and call @p leave_now
 * from inside the consumer at the chosen point: after the whole
 * stream, at instruction 100, or once the helper has filled the ring.
 */
template <class Fn>
void
retireThenLeave(Leave where, Fn &&leave_now)
{
    Service svc(20000);
    RequestExecution gen = svc.request(11);
    GeneratorPipe &pipe = GeneratorPipe::local();
    std::size_t seen = 0;
    pipe.run(gen, [&](const cpu::Instruction &) {
        ++seen;
        if (where == Leave::MidChunk && seen == 100)
            leave_now();
        if (where == Leave::OnAFullRing && seen == 1) {
            while (pipe.chunksReady() < ring)
                std::this_thread::yield();
            leave_now();
        }
        return true;
    });
    leave_now();
}

struct LeaveRequest
{
};

} // anonymous namespace

// The consumer stops after any instruction: the first, either side of
// a chunk or ring boundary, seeded places, and the last. It retires
// exactly next()'s prefix, the helper ends idle, and the next request
// through the same pipe is whole.
TEST(GeneratorPipe, StopsAfterAnyInstructionAndTheNextRequestIsWhole)
{
    Service svc(6000);
    const std::vector<cpu::Instruction> ref = svc.stream(1);
    const std::vector<cpu::Instruction> next_ref = svc.stream(2);
    ASSERT_GT(ref.size(), std::size_t{ring * chunk + 2});

    std::vector<std::size_t> stops = {0, 1, chunk - 1, chunk, chunk + 1,
                                      2 * chunk - 1, 2 * chunk,
                                      ring * chunk - 1, ring * chunk,
                                      ring * chunk + 1, ref.size() - 2,
                                      ref.size() - 1};
    Pcg32 pick(42, 7);
    for (int i = 0; i < 8; ++i)
        stops.push_back(pick.uniform(0, ref.size() - 1));

    GeneratorPipe &pipe = GeneratorPipe::local();
    for (std::size_t k : stops) {
        std::vector<cpu::Instruction> got = retire(svc, 1, k);
        ASSERT_EQ(got.size(), k + 1) << "stop after #" << k;
        EXPECT_TRUE(isPrefix(got, ref)) << "stop after #" << k;
        EXPECT_TRUE(pipe.idle()) << "stop after #" << k;

        std::vector<cpu::Instruction> whole = retire(svc, 2, next_ref.size());
        ASSERT_EQ(whole.size(), next_ref.size()) << "after #" << k;
        EXPECT_TRUE(isPrefix(whole, next_ref)) << "after #" << k;
        EXPECT_TRUE(pipe.idle());
    }
}

// A thread that leaves a request by unwinding, with its helper idle,
// still drawing, or blocked on a full ring, exits: its pipe stops and
// joins the helper.
TEST(GeneratorPipe, ThreadExitJoinsTheHelperWhateverItIsDoing)
{
    for (Leave where : {Leave::AtTheEnd, Leave::MidChunk,
                        Leave::OnAFullRing}) {
        bool idle = false;
        std::thread t([&] {
            try {
                retireThenLeave(where, [] { throw LeaveRequest{}; });
            } catch (const LeaveRequest &) {
            }
            idle = GeneratorPipe::local().idle();
        });
        t.join();
        EXPECT_TRUE(idle) << static_cast<int>(where);
    }
}

// Helpers are bounded by the threads that step nodes: a 16-node fleet
// steps on the thread that runs it, which starts exactly one helper.
// The fleet runs on a fresh thread, so no earlier test in this process
// has started that thread's helper already.
TEST(GeneratorPipe, AFleetStartsOneHelperOnTheThreadThatStepsIt)
{
    core::NodeConfig node;
    node.system.physMemBytes = 64ULL * 1024 * 1024;

    resilience::StormPlan plan;
    plan.seed = 1;
    plan.deadline = 8000000;

    cluster::ClusterConfig cc;
    cc.nodes = 16;
    cc.poolSlots = 2;
    cc.users = 2000;
    cc.requests = 160;
    cc.arrivalRatePerMCycle = 8.0;
    cc.link.ratePerMCycle = 40.0;

    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 5000;

    std::uint64_t before = GeneratorPipe::helpersStarted();
    cluster::ClusterReport rep;
    std::thread stepper([&] {
        cluster::ClusterSim sim(node, plan, cc, profile);
        rep = sim.run();
    });
    stepper.join();
    EXPECT_EQ(1u, GeneratorPipe::helpersStarted() - before);
    std::uint64_t busy_nodes = 0;
    for (std::uint64_t n : rep.nodeArrivals)
        busy_nodes += n > 0;
    EXPECT_GT(busy_nodes, 2u);  // more request-running nodes than helpers
}

// The process exits from inside a request, with the helper idle, still
// drawing, or blocked on a full ring: the exit stops the helper and
// joins it instead of hanging.
TEST(GeneratorPipeDeathTest, ProcessExitFromInsideARequestDoesNotHang)
{
    for (Leave where : {Leave::AtTheEnd, Leave::MidChunk,
                        Leave::OnAFullRing}) {
        EXPECT_EXIT(retireThenLeave(where, [] { std::exit(5); }),
                    ::testing::ExitedWithCode(5), "")
            << static_cast<int>(where);
    }
}

// A forked child (a death test) holds a copy of its parent's pipe but
// not the helper behind it. It must never wait on that helper: its
// pipe is a fresh one, and its exit does not join the parent's helper.
TEST(GeneratorPipeDeathTest, ForkedChildSetsItsParentsPipeAside)
{
    Service svc(6000);
    GeneratorPipe *parent = &GeneratorPipe::local();
    ASSERT_FALSE(retire(svc, 1, svc.stream(1).size()).empty());
    ASSERT_EQ(parent->ownerPid(), getpid());

    EXPECT_EXIT(std::exit(6), ::testing::ExitedWithCode(6), "");
    EXPECT_EXIT(
        {
            GeneratorPipe &mine = GeneratorPipe::local();
            bool fresh = &mine != parent && mine.ownerPid() == getpid();
            std::exit(fresh ? 7 : 1);
        },
        ::testing::ExitedWithCode(7), "");
}

#if defined(__SANITIZE_THREAD__)
#define INDRA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define INDRA_TSAN 1
#endif
#endif

// ... and a request the child runs is drawn by a helper of its own.
TEST(GeneratorPipeDeathTest, ForkedChildRunsRequestsOnItsOwnHelper)
{
#ifdef INDRA_TSAN
    GTEST_SKIP() << "ThreadSanitizer does not support starting a thread "
                    "in the child of a multi-threaded fork";
#endif
    Service svc(6000);
    const std::vector<cpu::Instruction> ref = svc.stream(1);
    ASSERT_EQ(retire(svc, 1, ref.size()).size(), ref.size());

    EXPECT_EXIT(
        {
            std::vector<cpu::Instruction> got = retire(svc, 1, ref.size());
            bool whole = got.size() == ref.size() && isPrefix(got, ref);
            std::exit(whole ? 8 : 1);
        },
        ::testing::ExitedWithCode(8), "");
}
