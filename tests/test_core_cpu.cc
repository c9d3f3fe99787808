/** @file Tests for the core model: timing, trace emission, hooks,
 * and the synchronization rules of Section 3.2.5. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "obs/stat_sinks.hh"
#include "sim/random.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

/** Records every trace record; configurable push/drain behaviour. */
struct FakeSink : cpu::TraceSink
{
    std::vector<cpu::TraceRecord> records;
    Tick pushDelay = 0;
    Tick drain = 0;

    Tick
    submit(const cpu::TraceRecord &rec, Tick tick) override
    {
        records.push_back(rec);
        return tick + pushDelay;
    }

    Tick drainTick() const override { return drain; }

    int
    countKind(cpu::TraceKind k) const
    {
        int n = 0;
        for (const auto &r : records) {
            if (r.kind == k)
                ++n;
        }
        return n;
    }
};

/** Counts hook invocations and observes memory at hook time. */
struct FakeHooks : cpu::CheckpointHooks
{
    int stores = 0;
    int loads = 0;
    Cycles storeCost = 0;
    std::uint64_t observedAtStore = 0;
    MemoryRig *rig = nullptr;
    Addr watch = 0;

    Cycles
    onStore(Tick, Pid, Addr vaddr, std::uint32_t) override
    {
        ++stores;
        if (rig && vaddr == watch)
            observedAtStore = rig->peek64(watch);
        return storeCost;
    }

    Cycles onLoad(Tick, Pid, Addr, std::uint32_t) override
    {
        ++loads;
        return 0;
    }
};

struct FakeOs : cpu::SyscallHandler
{
    int calls = 0;
    bool terminate = false;

    cpu::SyscallResult
    syscall(Tick, Pid, std::uint32_t, std::uint64_t,
            std::uint64_t) override
    {
        ++calls;
        cpu::SyscallResult r;
        r.cycles = 50;
        r.terminated = terminate;
        return r;
    }
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : rig(),
          core(rig.cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
               rig.stats)
    {
        rig.space->mapRegion(0x00400000, 8, os::Region::Code);
        rig.space->mapRegion(0x10000000, 8, os::Region::Data);
        core.setTraceSink(&sink);
    }

    cpu::Instruction
    alu(Addr pc)
    {
        cpu::Instruction i;
        i.op = cpu::Op::Alu;
        i.pc = pc;
        return i;
    }

    MemoryRig rig;
    FakeSink sink;
    cpu::Core core;
};

} // anonymous namespace

TEST_F(CoreTest, EightWideRetirement)
{
    // 16 ALU ops in one resident line: 2 cycles once the line is warm.
    core.execute(1, alu(0x00400000));  // cold fetch
    Tick warm = core.curTick();
    for (int i = 1; i < 8; ++i)
        core.execute(1, alu(0x00400000 + i * 4));
    EXPECT_EQ(core.curTick(), warm + 1);
    EXPECT_EQ(core.instructions(), 8u);
}

TEST_F(CoreTest, FetchMissStalls)
{
    core.execute(1, alu(0x00400000));
    Tick t1 = core.curTick();
    core.execute(1, alu(0x00402000));  // new line: L2+DRAM fetch
    EXPECT_GT(core.curTick(), t1 + 1);
}

TEST_F(CoreTest, StoreWritesMemoryFunctionally)
{
    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    st.value = 0x1234;
    core.execute(1, st);
    EXPECT_EQ(rig.peek64(0x10000040), 0x1234u);
}

TEST_F(CoreTest, LoadReadsValueBack)
{
    rig.poke64(0x10000080, 0xfeed);
    cpu::Instruction ld;
    ld.op = cpu::Op::Load;
    ld.pc = 0x00400000;
    ld.effAddr = 0x10000080;
    auto r = core.execute(1, ld);
    EXPECT_EQ(r.loadValue, 0xfeedu);
}

TEST_F(CoreTest, HookCalledBeforeFunctionalWrite)
{
    FakeHooks hooks;
    hooks.rig = &rig;
    hooks.watch = 0x10000040;
    core.setCheckpointHooks(&hooks);
    rig.poke64(0x10000040, 0xaaaa);  // old value

    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    st.value = 0xbbbb;
    core.execute(1, st);

    // The hook must observe the OLD value (backup-before-write).
    EXPECT_EQ(hooks.observedAtStore, 0xaaaau);
    EXPECT_EQ(rig.peek64(0x10000040), 0xbbbbu);
    EXPECT_EQ(hooks.stores, 1);
}

TEST_F(CoreTest, HookCostStallsPipeline)
{
    FakeHooks hooks;
    hooks.storeCost = 500;
    core.setCheckpointHooks(&hooks);
    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    Tick before = core.curTick();
    core.execute(1, st);
    EXPECT_GE(core.curTick(), before + 500);
}

TEST_F(CoreTest, CallEmitsCallRecord)
{
    cpu::Instruction call;
    call.op = cpu::Op::Call;
    call.pc = 0x00400100;
    call.target = 0x00400400;
    call.effAddr = 0x7ffe0000;
    core.execute(1, call);
    ASSERT_EQ(sink.countKind(cpu::TraceKind::Call), 1);
    const auto &rec = sink.records.back();
    EXPECT_EQ(rec.target, 0x00400400u);
    EXPECT_EQ(rec.retAddr, 0x00400104u);
    EXPECT_EQ(rec.sp, 0x7ffe0000u);
    EXPECT_EQ(rec.pid, 1u);
}

TEST_F(CoreTest, IndirectCallEmitsCallAndTransfer)
{
    cpu::Instruction call;
    call.op = cpu::Op::CallInd;
    call.pc = 0x00400100;
    call.target = 0x00400800;
    core.execute(1, call);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::Call), 1);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CtrlTransfer), 1);
}

TEST_F(CoreTest, ReturnAndJumpIndEmitRecords)
{
    cpu::Instruction ret;
    ret.op = cpu::Op::Return;
    ret.pc = 0x00400200;
    ret.target = 0x00400104;
    core.execute(1, ret);
    cpu::Instruction jmp;
    jmp.op = cpu::Op::JumpInd;
    jmp.pc = 0x00400204;
    jmp.target = 0x00400400;
    core.execute(1, jmp);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::Return), 1);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CtrlTransfer), 1);
}

TEST_F(CoreTest, SetjmpLongjmpEmitRecords)
{
    cpu::Instruction sj;
    sj.op = cpu::Op::Setjmp;
    sj.pc = 0x00400100;
    sj.imm = 3;
    core.execute(1, sj);
    ASSERT_EQ(sink.countKind(cpu::TraceKind::Setjmp), 1);
    EXPECT_EQ(sink.records.back().env, 3u);
    EXPECT_EQ(sink.records.back().target, 0x00400104u);

    cpu::Instruction lj;
    lj.op = cpu::Op::Longjmp;
    lj.pc = 0x00400300;
    lj.target = 0x00400104;
    lj.imm = 3;
    core.execute(1, lj);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::Longjmp), 1);
}

TEST_F(CoreTest, DirectJumpEmitsNothing)
{
    core.execute(1, alu(0x00400100));  // warm the fetch line
    sink.records.clear();
    cpu::Instruction jmp;
    jmp.op = cpu::Op::Jump;
    jmp.pc = 0x00400104;
    jmp.target = 0x00400200;
    core.execute(1, jmp);
    EXPECT_TRUE(sink.records.empty());
}

TEST_F(CoreTest, CodeOriginEmittedOnFillOnce)
{
    core.execute(1, alu(0x00400000));
    int first = sink.countKind(cpu::TraceKind::CodeOrigin);
    EXPECT_EQ(first, 1);
    // Same page, new line: CAM filters the second check.
    core.execute(1, alu(0x00400040));
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CodeOrigin), 1);
    // Far page: CAM miss, new record.
    core.execute(1, alu(0x00402000));
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CodeOrigin), 2);
}

TEST_F(CoreTest, SyscallWaitsForMonitorDrain)
{
    FakeOs osh;
    core.setSyscallHandler(&osh);
    sink.drain = 5000;
    cpu::Instruction sc;
    sc.op = cpu::Op::Syscall;
    sc.pc = 0x00400000;
    sc.imm = 99;
    core.execute(1, sc);
    EXPECT_GE(core.curTick(), 5000u);
    EXPECT_EQ(osh.calls, 1);
}

TEST_F(CoreTest, IoWriteWaitsForMonitorDrain)
{
    sink.drain = 7777;
    cpu::Instruction io;
    io.op = cpu::Op::IoWrite;
    io.pc = 0x00400000;
    core.execute(1, io);
    EXPECT_GE(core.curTick(), 7777u);
}

TEST_F(CoreTest, SyscallTerminationPropagates)
{
    FakeOs osh;
    osh.terminate = true;
    core.setSyscallHandler(&osh);
    cpu::Instruction sc;
    sc.op = cpu::Op::Syscall;
    sc.pc = 0x00400000;
    auto r = core.execute(1, sc);
    EXPECT_TRUE(r.terminated);
}

TEST_F(CoreTest, HaltSetsFlag)
{
    cpu::Instruction h;
    h.op = cpu::Op::Halt;
    h.pc = 0x00400000;
    auto r = core.execute(1, h);
    EXPECT_TRUE(r.halted);
}

TEST_F(CoreTest, UnmappedFetchFaults)
{
    auto r = core.execute(1, alu(0x50000000));
    EXPECT_EQ(r.fault, mem::MemFault::Unmapped);
}

TEST_F(CoreTest, UnmappedStoreFaults)
{
    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x60000000;
    auto r = core.execute(1, st);
    EXPECT_EQ(r.fault, mem::MemFault::Unmapped);
}

TEST_F(CoreTest, HighPrivilegeCoreEmitsNoRecords)
{
    cpu::Core high(rig.cfg, 0, Privilege::High, *rig.hierarchy,
                   rig.phys, rig.stats);
    high.setTraceSink(&sink);
    cpu::Instruction call;
    call.op = cpu::Op::Call;
    call.pc = 0x00400100;
    call.target = 0x00400400;
    high.execute(1, call);
    EXPECT_TRUE(sink.records.empty());
}

TEST_F(CoreTest, StallUntilMovesTimeForwardOnly)
{
    core.stallUntil(100);
    EXPECT_EQ(core.curTick(), 100u);
    core.stallUntil(50);
    EXPECT_EQ(core.curTick(), 100u);
}

TEST_F(CoreTest, ResetTimeClearsClock)
{
    core.execute(1, alu(0x00400000));
    core.resetTime();
    EXPECT_EQ(core.curTick(), 0u);
}

TEST_F(CoreTest, FlushPipelineForcesRefetch)
{
    core.execute(1, alu(0x00400000));
    std::uint64_t accesses =
        rig.hierarchy->l1iCache().accesses();
    core.execute(1, alu(0x00400004));  // same line: no new access
    EXPECT_EQ(rig.hierarchy->l1iCache().accesses(), accesses);
    core.flushPipeline();
    core.execute(1, alu(0x00400008));  // refetch after flush
    EXPECT_EQ(rig.hierarchy->l1iCache().accesses(), accesses + 1);
}

// FilterCam behaviour within the core.
TEST_F(CoreTest, ZeroEntryCamSendsEveryFill)
{
    SystemConfig cfg = rig.cfg;
    cfg.filterCamEntries = 0;
    cpu::Core nocam(cfg, 2, Privilege::Low, *rig.hierarchy, rig.phys,
                    rig.stats);
    nocam.setTraceSink(&sink);
    nocam.execute(1, alu(0x00400000));
    nocam.execute(1, alu(0x00400040));
    nocam.execute(1, alu(0x00400080));
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CodeOrigin), 3);
}

// ----------------------------------------------- typed dispatch twin

namespace
{

/** execute<Op> for a runtime op, as a generator that knows it calls. */
cpu::ExecResult
executeTyped(cpu::Core &core, Pid pid, const cpu::Instruction &inst)
{
    using cpu::Op;
    switch (inst.op) {
      case Op::Alu: return core.execute<Op::Alu>(pid, inst);
      case Op::Load: return core.execute<Op::Load>(pid, inst);
      case Op::Store: return core.execute<Op::Store>(pid, inst);
      case Op::Call: return core.execute<Op::Call>(pid, inst);
      case Op::CallInd: return core.execute<Op::CallInd>(pid, inst);
      case Op::Return: return core.execute<Op::Return>(pid, inst);
      case Op::Jump: return core.execute<Op::Jump>(pid, inst);
      case Op::JumpInd: return core.execute<Op::JumpInd>(pid, inst);
      case Op::Setjmp: return core.execute<Op::Setjmp>(pid, inst);
      case Op::Longjmp: return core.execute<Op::Longjmp>(pid, inst);
      case Op::Syscall: return core.execute<Op::Syscall>(pid, inst);
      case Op::IoWrite: return core.execute<Op::IoWrite>(pid, inst);
      case Op::Halt: return core.execute<Op::Halt>(pid, inst);
    }
    return {};
}

/** One core on its own memory rig, with sink, hooks and OS attached. */
struct TwinRig
{
    TwinRig()
        : core(rig.cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
               rig.stats)
    {
        rig.space->mapRegion(codeBase, 8, os::Region::Code);
        rig.space->mapRegion(dataBase, 8, os::Region::Data);
        sink.pushDelay = 3;
        hooks.storeCost = 2;
        core.setTraceSink(&sink);
        core.setCheckpointHooks(&hooks);
        core.setSyscallHandler(&os);
    }

    std::string
    statDump() const
    {
        std::ostringstream out;
        obs::TextStatSink text(out);
        rig.stats.accept(text);
        return out.str();
    }

    static constexpr Addr codeBase = 0x00400000;
    static constexpr Addr dataBase = 0x10000000;

    MemoryRig rig;
    FakeSink sink;
    FakeHooks hooks;
    FakeOs os;
    cpu::Core core;
};

/**
 * A seeded stream over every op: mostly sequential fetch (crossing
 * fetch lines) with jumps, some into unmapped code; loads and stores
 * at random, page-crossing and unmapped addresses.
 */
std::vector<cpu::Instruction>
twinStream(std::uint64_t seed, std::size_t n)
{
    using cpu::Op;
    Pcg32 rng(seed, 11);
    const Op ops[] = {Op::Alu,    Op::Alu,     Op::Alu,     Op::Alu,
                      Op::Jump,   Op::Load,    Op::Load,    Op::Store,
                      Op::Store,  Op::Call,    Op::CallInd, Op::Return,
                      Op::JumpInd, Op::Setjmp, Op::Longjmp, Op::Syscall,
                      Op::IoWrite, Op::Halt};
    std::vector<cpu::Instruction> out;
    Addr pc = TwinRig::codeBase;
    for (std::size_t k = 0; k < n; ++k) {
        cpu::Instruction i;
        i.op = ops[rng.nextBounded(sizeof(ops) / sizeof(ops[0]))];
        std::uint32_t jump = rng.nextBounded(64);
        if (jump == 0)
            pc = TwinRig::codeBase + 4 * rng.nextBounded(8 * 1024);
        else if (jump == 1)
            pc = 0x00800000 + 4 * rng.nextBounded(1024);  // unmapped
        i.pc = pc;
        pc += 4;
        i.target = TwinRig::codeBase + 4 * rng.nextBounded(8 * 1024);
        i.value = rng.next64();
        i.imm = rng.nextBounded(4);
        std::uint32_t where = rng.nextBounded(8);
        if (where == 0) {
            // The last bytes of a page: the access crosses into the next.
            i.effAddr = TwinRig::dataBase +
                4096 * rng.nextBounded(7) + 4096 - 4;
        } else if (where == 1) {
            i.effAddr = 0x30000000 + 8 * rng.nextBounded(512);  // unmapped
        } else {
            i.effAddr = TwinRig::dataBase + 8 * rng.nextBounded(8 * 512);
        }
        i.bytes = rng.nextBounded(4) == 0 ? 4 : 8;
        out.push_back(i);
    }
    return out;
}

} // anonymous namespace

// Two identical rigs run the same seeded streams, one through the
// typed entry points a generator calls when it knows the op, the other
// through the generic execute: results, time and every core, cache,
// bus and DRAM statistic must agree after each instruction.
TEST(CoreTypedDispatch, TypedAndGenericExecuteAreTwins)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        TwinRig typed, generic;
        std::size_t k = 0;
        std::size_t faults = 0;
        for (const cpu::Instruction &inst : twinStream(seed, 6000)) {
            cpu::ExecResult a = executeTyped(typed.core, 1, inst);
            cpu::ExecResult b = generic.core.execute(1, inst);
            faults += a.fault != mem::MemFault::None;
            ASSERT_EQ(a.fault, b.fault) << "seed " << seed << " #" << k;
            ASSERT_EQ(a.halted, b.halted) << k;
            ASSERT_EQ(a.terminated, b.terminated) << k;
            ASSERT_EQ(a.loadValue, b.loadValue) << k;
            ASSERT_EQ(typed.core.curTick(), generic.core.curTick()) << k;
            ASSERT_EQ(typed.sink.records.size(),
                      generic.sink.records.size()) << k;
            ASSERT_EQ(typed.hooks.stores, generic.hooks.stores) << k;
            ASSERT_EQ(typed.hooks.loads, generic.hooks.loads) << k;
            ASSERT_EQ(typed.os.calls, generic.os.calls) << k;
            ASSERT_EQ(typed.statDump(), generic.statDump()) << k;
            ++k;
        }
        // The stream reached every path the twins must agree on.
        EXPECT_GT(typed.core.instructions(), 3000u);
        EXPECT_GT(typed.sink.countKind(cpu::TraceKind::Call), 0);
        EXPECT_GT(typed.hooks.stores, 0);
        EXPECT_GT(typed.os.calls, 0);
        EXPECT_GT(faults, 0u);
    }
}
