/** @file Tests for the daemon profiles, service program layout, and
 * the request instruction-stream generator. */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/daemon_profile.hh"
#include "net/exploit.hh"
#include "net/generator_pipe.hh"
#include "net/workload.hh"

using namespace indra;
using net::AttackKind;
using net::RequestExecution;
using net::ServiceApplication;
using net::ServiceProgram;

namespace
{

/** Pull the whole stream into a vector. */
std::vector<cpu::Instruction>
drain(RequestExecution &gen)
{
    std::vector<cpu::Instruction> out;
    cpu::Instruction inst;
    while (gen.next(inst))
        out.push_back(inst);
    return out;
}

net::ServiceRequest
request(std::uint64_t seq, AttackKind kind = AttackKind::None)
{
    net::ServiceRequest r;
    r.seq = seq;
    r.attack = kind;
    return r;
}

} // anonymous namespace

// ----------------------------------------------------------- profiles

TEST(Profiles, SixStandardDaemons)
{
    const auto &all = net::standardDaemons();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name, "ftpd");
    EXPECT_EQ(all[2].name, "bind");
    EXPECT_EQ(all[5].name, "nfs");
}

TEST(Profiles, BindIsTheShortRequestHeavyWriter)
{
    const auto &bind = net::daemonByName("bind");
    for (const auto &p : net::standardDaemons()) {
        if (p.name == "bind")
            continue;
        EXPECT_LT(bind.instrPerRequest, p.instrPerRequest);
        EXPECT_GT(bind.dirtyLineFraction, p.dirtyLineFraction);
    }
}

TEST(Profiles, PagesPerRequestAveragesNearFifty)
{
    double sum = 0;
    for (const auto &p : net::standardDaemons())
        sum += p.pagesPerRequest;
    EXPECT_NEAR(sum / 6.0, 50.0, 5.0);
}

TEST(ProfilesDeath, UnknownDaemonIsFatal)
{
    EXPECT_DEATH(net::daemonByName("gopherd"), "unknown daemon");
}

// ------------------------------------------------------------ program

TEST(Program, LayoutIsDeterministic)
{
    const auto &p = net::daemonByName("httpd");
    ServiceProgram a(p, 42, 4096), b(p, 42, 4096);
    ASSERT_EQ(a.functions().size(), b.functions().size());
    for (std::size_t i = 0; i < a.functions().size(); ++i) {
        EXPECT_EQ(a.functions()[i].entry, b.functions()[i].entry);
        EXPECT_EQ(a.functions()[i].blocks, b.functions()[i].blocks);
    }
}

TEST(Program, FunctionsDontOverlap)
{
    const auto &p = net::daemonByName("ftpd");
    ServiceProgram prog(p, 1, 4096);
    for (std::size_t i = 1; i < prog.functions().size(); ++i) {
        const auto &prev = prog.functions()[i - 1];
        const auto &cur = prog.functions()[i];
        EXPECT_GE(cur.entry, prev.entry + prev.blocks *
                                 ServiceProgram::blockBytes);
    }
}

TEST(Program, LibraryFunctionsComeLast)
{
    const auto &p = net::daemonByName("imap");
    ServiceProgram prog(p, 1, 4096);
    EXPECT_EQ(prog.libFunctionCount(), p.libraryFunctions);
    EXPECT_EQ(prog.libraryEntries().size(), p.libraryFunctions);
    for (std::uint32_t i = 0; i < prog.appFunctionCount(); ++i)
        EXPECT_FALSE(prog.function(i).library);
    EXPECT_TRUE(prog.function(prog.appFunctionCount()).library);
}

TEST(Program, CodePagesCoverEveryFunction)
{
    const auto &p = net::daemonByName("bind");
    ServiceProgram prog(p, 1, 4096);
    std::set<Addr> pages(prog.codePages().begin(),
                         prog.codePages().end());
    for (const auto &fn : prog.functions()) {
        Addr page = fn.entry & ~4095ull;
        EXPECT_TRUE(pages.count(page)) << std::hex << fn.entry;
    }
}

TEST(Program, StackBelowStackTop)
{
    const auto &p = net::daemonByName("nfs");
    ServiceProgram prog(p, 1, 4096);
    EXPECT_LT(prog.stackBase(), prog.stackTop());
    EXPECT_EQ(prog.stackTop() - prog.stackBase(),
              ServiceProgram::stackPages * 4096ull);
}

// ---------------------------------------------------------- generator

class GeneratorTest : public ::testing::Test
{
  protected:
    GeneratorTest()
        : profile(makeProfile()), app(profile, 99, 4096)
    {
    }

    static net::DaemonProfile
    makeProfile()
    {
        net::DaemonProfile p = net::daemonByName("httpd");
        p.instrPerRequest = 20000;  // keep tests fast
        return p;
    }

    net::DaemonProfile profile;
    ServiceApplication app;
};

TEST_F(GeneratorTest, StreamStartsWithRequestCheckpoint)
{
    auto gen = app.beginRequest(request(1));
    cpu::Instruction first;
    ASSERT_TRUE(gen.next(first));
    EXPECT_EQ(first.op, cpu::Op::Syscall);
    EXPECT_EQ(first.imm, static_cast<std::uint32_t>(
                             cpu::SyscallNo::RequestCheckpoint));
}

TEST_F(GeneratorTest, StreamEndsWithHalt)
{
    auto gen = app.beginRequest(request(1));
    auto stream = drain(gen);
    ASSERT_FALSE(stream.empty());
    EXPECT_EQ(stream.back().op, cpu::Op::Halt);
}

TEST_F(GeneratorTest, LengthNearTarget)
{
    auto gen = app.beginRequest(request(1));
    auto stream = drain(gen);
    EXPECT_GT(stream.size(), 15000u);
    EXPECT_LT(stream.size(), 26000u);
}

TEST_F(GeneratorTest, CallsAndReturnsBalance)
{
    auto gen = app.beginRequest(request(1));
    auto stream = drain(gen);
    int depth = 0;
    int max_depth = 0;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::Call || inst.op == cpu::Op::CallInd)
            ++depth;
        if (inst.op == cpu::Op::Return)
            --depth;
        if (inst.op == cpu::Op::Longjmp)
            depth = 0;  // non-local unwind to the dispatcher env
        EXPECT_GE(depth, 0);
        max_depth = std::max(max_depth, depth);
    }
    EXPECT_EQ(depth, 0);  // fully unwound
    EXPECT_GT(max_depth, 1);
}

TEST_F(GeneratorTest, ReturnsTargetTheCallSite)
{
    auto gen = app.beginRequest(request(1));
    cpu::Instruction inst;
    std::vector<Addr> expected;  // stack of return addresses
    while (gen.next(inst)) {
        if (inst.op == cpu::Op::Call || inst.op == cpu::Op::CallInd) {
            expected.push_back(inst.nextPc());
        } else if (inst.op == cpu::Op::Return) {
            ASSERT_FALSE(expected.empty());
            EXPECT_EQ(inst.target, expected.back());
            expected.pop_back();
        } else if (inst.op == cpu::Op::Longjmp) {
            expected.clear();  // non-local unwind
        }
    }
}

TEST_F(GeneratorTest, CallTargetsAreFunctionEntries)
{
    std::set<Addr> entries;
    for (const auto &fn : app.program().functions())
        entries.insert(fn.entry);
    auto gen = app.beginRequest(request(1));
    cpu::Instruction inst;
    while (gen.next(inst)) {
        if (inst.op == cpu::Op::Call || inst.op == cpu::Op::CallInd) {
            ASSERT_TRUE(entries.count(inst.target))
                << std::hex << inst.target;
        }
    }
}

TEST_F(GeneratorTest, StoresStayInPlannedOrStackPages)
{
    auto gen = app.beginRequest(request(1));
    std::set<Vpn> planned;
    for (Vpn v : gen.plannedPages())
        planned.insert(v);
    Addr stack_base = app.program().stackBase();
    cpu::Instruction inst;
    while (gen.next(inst)) {
        if (inst.op != cpu::Op::Store)
            continue;
        bool in_stack = inst.effAddr >= stack_base &&
            inst.effAddr < app.program().stackTop();
        bool in_plan = planned.count(inst.effAddr / 4096) != 0;
        ASSERT_TRUE(in_stack || in_plan) << std::hex << inst.effAddr;
    }
}

TEST_F(GeneratorTest, DirtyLinesPerPageMatchProfileFraction)
{
    auto gen = app.beginRequest(request(1));
    std::map<Vpn, std::set<std::uint64_t>> lines_per_page;
    std::set<Vpn> planned;
    for (Vpn v : gen.plannedPages())
        planned.insert(v);
    cpu::Instruction inst;
    while (gen.next(inst)) {
        if (inst.op == cpu::Op::Store && planned.count(inst.effAddr /
                                                       4096)) {
            lines_per_page[inst.effAddr / 4096].insert(
                (inst.effAddr % 4096) / 64);
        }
    }
    std::uint32_t budget_lines = static_cast<std::uint32_t>(
        profile.dirtyLineFraction * 64 + 0.5);
    for (const auto &[vpn, lines] : lines_per_page)
        EXPECT_LE(lines.size(), budget_lines);
}

TEST_F(GeneratorTest, SameSeedSameStream)
{
    ServiceApplication a(profile, 5, 4096), b(profile, 5, 4096);
    auto ga = a.beginRequest(request(1));
    auto gb = b.beginRequest(request(1));
    cpu::Instruction ia, ib;
    for (int i = 0; i < 5000; ++i) {
        bool ra = ga.next(ia);
        bool rb = gb.next(ib);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        ASSERT_EQ(ia.op, ib.op);
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.effAddr, ib.effAddr);
    }
}

TEST_F(GeneratorTest, EventsIncludeIoAndLog)
{
    auto gen = app.beginRequest(request(1));
    auto stream = drain(gen);
    int io = 0, log = 0, open = 0;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::IoWrite)
            ++io;
        if (inst.op == cpu::Op::Syscall &&
            inst.imm ==
                static_cast<std::uint32_t>(cpu::SyscallNo::WriteLog))
            ++log;
        if (inst.op == cpu::Op::Syscall &&
            inst.imm ==
                static_cast<std::uint32_t>(cpu::SyscallNo::OpenFile))
            ++open;
    }
    EXPECT_EQ(io, static_cast<int>(profile.ioWritesPerRequest));
    EXPECT_EQ(log, 1);
    EXPECT_EQ(open, static_cast<int>(profile.filesPerRequest));
}

TEST_F(GeneratorTest, LongjmpRequestsUnwindToTheSetjmpEnv)
{
    net::DaemonProfile p = profile;
    p.longjmpProb = 1.0;  // every request takes the error path
    ServiceApplication lj_app(p, 7, 4096);
    auto gen = lj_app.beginRequest(request(1));
    auto stream = drain(gen);
    int longjmps = 0;
    Addr setjmp_resume = 0;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::Setjmp)
            setjmp_resume = inst.pc + 4;
        if (inst.op == cpu::Op::Longjmp) {
            ++longjmps;
            EXPECT_EQ(inst.target, setjmp_resume);
            EXPECT_EQ(inst.imm, 1u);
        }
    }
    EXPECT_EQ(longjmps, 1);
    // The request still completes normally.
    EXPECT_EQ(stream.back().op, cpu::Op::Halt);
}

// ------------------------------------------------------------ attacks

TEST_F(GeneratorTest, StackSmashEmitsHijackedReturn)
{
    auto gen = app.beginRequest(request(1, AttackKind::StackSmash));
    auto stream = drain(gen);
    Addr stack_base = app.program().stackBase();
    bool hijacked = false;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::Return && inst.target >= stack_base &&
            inst.target < app.program().stackTop()) {
            hijacked = true;
        }
    }
    EXPECT_TRUE(hijacked);
    // Unprotected execution ends in a crash.
    bool crash = false;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::Syscall &&
            inst.imm == static_cast<std::uint32_t>(cpu::SyscallNo::Crash))
            crash = true;
    }
    EXPECT_TRUE(crash);
}

TEST_F(GeneratorTest, CodeInjectionJumpsToStack)
{
    auto gen = app.beginRequest(request(1, AttackKind::CodeInjection));
    auto stream = drain(gen);
    Addr stack_base = app.program().stackBase();
    bool jump_to_stack = false;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::JumpInd && inst.target >= stack_base)
            jump_to_stack = true;
    }
    EXPECT_TRUE(jump_to_stack);
}

TEST_F(GeneratorTest, FuncPtrHijackCallsIllegalTarget)
{
    std::set<Addr> entries;
    for (const auto &fn : app.program().functions())
        entries.insert(fn.entry);
    auto gen = app.beginRequest(request(1, AttackKind::FuncPtrHijack));
    auto stream = drain(gen);
    bool illegal = false;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::CallInd && !entries.count(inst.target))
            illegal = true;
    }
    EXPECT_TRUE(illegal);
}

TEST_F(GeneratorTest, DosFloodCrashesWithoutHijack)
{
    std::set<Addr> entries;
    for (const auto &fn : app.program().functions())
        entries.insert(fn.entry);
    auto gen = app.beginRequest(request(1, AttackKind::DosFlood));
    auto stream = drain(gen);
    bool crash = false;
    for (const auto &inst : stream) {
        if (inst.op == cpu::Op::CallInd) {
            EXPECT_TRUE(entries.count(inst.target));
        }
        if (inst.op == cpu::Op::Syscall &&
            inst.imm == static_cast<std::uint32_t>(cpu::SyscallNo::Crash))
            crash = true;
    }
    EXPECT_TRUE(crash);
}

TEST_F(GeneratorTest, DormantCompletesNormallyThenSurfaces)
{
    auto gen = app.beginRequest(request(1, AttackKind::Dormant));
    auto stream = drain(gen);
    for (const auto &inst : stream) {
        ASSERT_FALSE(inst.op == cpu::Op::Syscall &&
                     inst.imm == static_cast<std::uint32_t>(
                                     cpu::SyscallNo::Crash));
    }
    EXPECT_TRUE(app.hasDormantDamage());

    // The next couple of requests are fine...
    for (std::uint64_t seq = 2;
         seq < 1 + ServiceApplication::dormantDelay; ++seq) {
        auto g2 = app.beginRequest(request(seq));
        auto s2 = drain(g2);
        for (const auto &inst : s2) {
            ASSERT_FALSE(inst.op == cpu::Op::Syscall &&
                         inst.imm == static_cast<std::uint32_t>(
                                         cpu::SyscallNo::Crash));
        }
    }
    // ...then the damage surfaces as a mid-request crash.
    auto g3 = app.beginRequest(
        request(1 + ServiceApplication::dormantDelay));
    auto s3 = drain(g3);
    bool crash = false;
    for (const auto &inst : s3) {
        if (inst.op == cpu::Op::Syscall &&
            inst.imm == static_cast<std::uint32_t>(cpu::SyscallNo::Crash))
            crash = true;
    }
    EXPECT_TRUE(crash);

    app.healDormantDamage();
    EXPECT_FALSE(app.hasDormantDamage());
}

// ------------------------------------------------------- stream pin

namespace
{

/** Fold @p v into the running digest @p h (FNV-style step plus a
 *  shift-xor, so every field bit reaches the high half). */
void
mixInto(std::uint64_t &h, std::uint64_t v)
{
    h = (h ^ v) * 0x100000001b3ULL;
    h ^= h >> 29;
}

/** How a pinned stream is drawn: next() on this thread, or the
 *  generator pipe's helper with the instructions retired here. */
enum class Drain
{
    Next,
    Pipe,
};

/** Digest of every field of every instruction of one daemon's streams
 *  for @p attack, drawn by @p drain: 4 seeds x surface-dormant off/on
 *  x weights {0.5, 1, 2}, each stream's length folded in after its
 *  last instruction. */
std::uint64_t
pinnedDigest(net::DaemonProfile profile, AttackKind attack, Drain drain)
{
    profile.instrPerRequest = 40000;  // full draw mix, test-sized
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        ServiceProgram prog(profile, seed, 4096);
        net::DrawPlan plan(prog, 4096);
        for (bool surface : {false, true}) {
            for (double weight : {0.5, 1.0, 2.0}) {
                RequestExecution gen(
                    plan, Pcg32(seed * 7919, 0x5eed0000ULL + seed),
                    attack, surface, weight);
                auto mix = [&h](const cpu::Instruction &inst) {
                    mixInto(h, static_cast<std::uint64_t>(inst.op));
                    mixInto(h, inst.pc);
                    mixInto(h, inst.target);
                    mixInto(h, inst.effAddr);
                    mixInto(h, inst.value);
                    mixInto(h, inst.imm);
                    mixInto(h, inst.bytes);
                    return true;
                };
                if (drain == Drain::Pipe) {
                    net::GeneratorPipe::local().run(gen, mix);
                } else {
                    cpu::Instruction inst;
                    while (gen.next(inst))
                        mix(inst);
                }
                mixInto(h, gen.emitted());
            }
        }
    }
    return h;
}

/**
 * Check the stream digests of the standard daemons and bind-edges for
 * every attack kind, drawn by @p drain.
 * @return the digests as the source rows of the expected table
 */
std::string
checkPinnedStreams(Drain drain)
{
    const AttackKind kinds[] = {
        AttackKind::None,          AttackKind::StackSmash,
        AttackKind::CodeInjection, AttackKind::FuncPtrHijack,
        AttackKind::FormatString,  AttackKind::DosFlood,
        AttackKind::Dormant,
    };
    const std::map<std::string, std::vector<std::uint64_t>> expected = {
        {"ftpd",
         {0xaa23c02188bf31daULL, 0x2d44848fc8714aaaULL,
          0x47e1ba5309e7f65fULL, 0xa76fbfee6eb72d72ULL,
          0x27b2d139ed46a48fULL, 0xc2e02240e0e545a3ULL,
          0x734b79d50db1b79dULL}},
        {"httpd",
         {0x19132a4d4804a771ULL, 0xf1ea6e42adfdc2ceULL,
          0x89cca25f2242920aULL, 0x71282539da56a007ULL,
          0x6142ea1f4ce11dcdULL, 0x07c1402ad7a593e6ULL,
          0x502f1fed2f373760ULL}},
        {"bind",
         {0x3c589175f4f88cb1ULL, 0xc757799f88e6f6f6ULL,
          0xa6861e2dc69268f6ULL, 0xa98c75ca6071509dULL,
          0x295d66bf815ab02dULL, 0xd3ff4d9f9be03585ULL,
          0x749dd2083b6b36fdULL}},
        {"sendmail",
         {0x9e1fe579a96ff6eeULL, 0xe5d6c803a9120732ULL,
          0xecfd042d1e34dd6eULL, 0x2735b46a02b2b356ULL,
          0x688fe5b7aa1d8036ULL, 0xa22f51ee270814a4ULL,
          0x1dff00d16b3c4e31ULL}},
        {"imap",
         {0x4b7f4e27f690086bULL, 0x4c02208f2ceb981cULL,
          0x6c238582b49260cbULL, 0x21794e117015041bULL,
          0x3b91019e57858552ULL, 0xe2c133d984656a47ULL,
          0xe3df7337fef97a9fULL}},
        {"nfs",
         {0xb76441a739987b82ULL, 0xed02050381ce68d8ULL,
          0xec06267cfed40d8bULL, 0xc5764397c79eca53ULL,
          0xee683c31bbd6409bULL, 0xe9f876b98c489efaULL,
          0x87a892b05f836633ULL}},
        {"bind-edges",
         {0x183a27dc5552d2f7ULL, 0x232a0415e58ada2aULL,
          0xd4af6364370e0932ULL, 0xeef19d48b959dd21ULL,
          0x17389206074cf84fULL, 0x6a16190ab6dd07a5ULL,
          0x497cd966bd5a29a1ULL}},
    };
    // The standard daemons, plus one whose draws take the edge paths
    // they never reach: a longjmp in most requests, a certain heap
    // allocation, no block repeats, and no library calls.
    std::vector<net::DaemonProfile> profiles = net::standardDaemons();
    net::DaemonProfile edges = net::daemonByName("bind");
    edges.name = "bind-edges";
    edges.longjmpProb = 0.6;
    edges.heapAllocProb = 1.0;
    edges.blockRepeat = 1.0;
    edges.libraryCallFraction = 0.0;
    edges.indirectCallFraction = 0.9;
    profiles.push_back(edges);
    std::string printed;
    for (const auto &profile : profiles) {
        char row[512];
        int n = std::snprintf(row, sizeof(row), "        {\"%s\", {",
                              profile.name.c_str());
        std::vector<std::uint64_t> got;
        for (AttackKind kind : kinds) {
            got.push_back(pinnedDigest(profile, kind, drain));
            n += std::snprintf(row + n, sizeof(row) - n, "%s0x%016llxULL",
                               got.size() == 1 ? "" : ", ",
                               static_cast<unsigned long long>(got.back()));
        }
        std::snprintf(row + n, sizeof(row) - n, "}},\n");
        printed += row;
        auto it = expected.find(profile.name);
        EXPECT_TRUE(it != expected.end() && got == it->second)
            << profile.name << " stream digests moved";
    }
    return printed;
}

} // anonymous namespace

// Pins the exact instruction stream: any moved draw, reordered branch
// or changed field shows up as a changed digest. The expected values
// were printed by this test; a deliberate change to the generator's
// output must re-record them and say so.
TEST(StreamPin, EveryFieldOfEveryStandardStreamIsPinned)
{
    std::printf("%s", checkPinnedStreams(Drain::Next).c_str());
}

// The request loop retires the stream the pipe's helper draws: it must
// be next()'s stream, field for field, with the same length.
TEST(StreamPin, ThePipeRetiresEveryPinnedStream)
{
    checkPinnedStreams(Drain::Pipe);
}

// ----------------------------------------------------------- exploits

TEST(Exploits, DocumentedScenariosCoverAllKinds)
{
    const auto &all = net::documentedExploits();
    ASSERT_GE(all.size(), 5u);
    std::set<AttackKind> kinds;
    for (const auto &e : all)
        kinds.insert(e.kind);
    EXPECT_TRUE(kinds.count(AttackKind::StackSmash));
    EXPECT_TRUE(kinds.count(AttackKind::CodeInjection));
    EXPECT_TRUE(kinds.count(AttackKind::FuncPtrHijack));
    EXPECT_TRUE(kinds.count(AttackKind::DosFlood));
}

TEST(Exploits, ExpectedViolationMapping)
{
    using mon::Violation;
    EXPECT_EQ(net::expectedViolation(AttackKind::StackSmash),
              Violation::StackSmash);
    EXPECT_EQ(net::expectedViolation(AttackKind::CodeInjection),
              Violation::IllegalTransfer);
    EXPECT_EQ(net::expectedViolation(AttackKind::DosFlood),
              Violation::None);
    EXPECT_EQ(net::expectedViolation(AttackKind::None),
              Violation::None);
}
