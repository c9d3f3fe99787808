#include "cpu/core.hh"

#include "sim/logging.hh"

namespace indra::cpu
{

Core::Core(const SystemConfig &cfg, CoreId core_id, Privilege privilege,
           mem::MemHierarchy &hierarchy_ref, mem::PhysicalMemory &phys_ref,
           stats::StatGroup &parent)
    : config(cfg), geom(cfg), id(core_id), priv(privilege),
      hierarchy(hierarchy_ref),
      phys(phys_ref),
      cam(cfg.filterCamEntries, parent),
      statGroup(parent, "core"),
      statInstructions(statGroup, "instructions", "instructions retired"),
      statLoads(statGroup, "loads", "loads retired"),
      statStores(statGroup, "stores", "stores retired"),
      statCalls(statGroup, "calls", "calls retired"),
      statReturns(statGroup, "returns", "returns retired"),
      statIndirect(statGroup, "indirect_transfers",
                   "indirect calls and computed jumps"),
      statSyscalls(statGroup, "syscalls", "system calls"),
      statIoWrites(statGroup, "io_writes", "I/O-memory writes"),
      statRecordsSent(statGroup, "records_sent",
                      "trace records pushed to the resurrector"),
      statSyncStallCycles(statGroup, "sync_stall_cycles",
                          "cycles stalled synchronizing with the monitor"),
      statMemStallCycles(statGroup, "mem_stall_cycles",
                         "cycles stalled on memory")
{
}

void
Core::stall(Cycles cycles)
{
    if (cycles == 0)
        return;
    tick += cycles;
    slotsUsed = 0;
}

void
Core::stallUntil(Tick t)
{
    if (t > tick) {
        tick = t;
        slotsUsed = 0;
    }
}

void
Core::flushPipeline()
{
    slotsUsed = 0;
    lastFetchLine = invalidAddr;
}

Cycles
Core::onContextSwitch()
{
    // A switch is also a synchronization point: all prior
    // instructions must be verified first (Section 3.2.5).
    syncWithMonitor();
    flushPipeline();
    cam.invalidate();
    constexpr Cycles switch_cost = 800;
    stall(switch_cost);
    return switch_cost;
}

void
Core::resetTime()
{
    tick = 0;
    slotsUsed = 0;
    lastFetchLine = invalidAddr;
}

std::uint64_t
Core::instructions() const
{
    return static_cast<std::uint64_t>(statInstructions.value());
}

void
Core::emitRecord(const TraceRecord &rec)
{
    ++statRecordsSent;
    Tick done = traceSink->submit(rec, tick);
    if (done > tick) {
        statSyncStallCycles += static_cast<double>(done - tick);
        stallUntil(done);
    }
}

void
Core::syncWithMonitor()
{
    if (!monitored())
        return;
    Tick drained = traceSink->drainTick();
    if (drained > tick) {
        statSyncStallCycles += static_cast<double>(drained - tick);
        stallUntil(drained);
    }
}

mem::MemFault
Core::doFetch(Pid pid, const Instruction &inst)
{
    Addr line = alignDown(inst.pc, config.l1i.lineBytes);
    if (line == lastFetchLine)
        return mem::MemFault::None;
    lastFetchLine = line;

    mem::MemOutcome out = hierarchy.fetch(tick, pid, line);
    if (out.fault != mem::MemFault::None)
        return out.fault;
    if (out.latency > config.l1i.hitLatency) {
        statMemStallCycles +=
            static_cast<double>(out.latency - config.l1i.hitLatency);
        stall(out.latency - config.l1i.hitLatency);
    }

    // An L1I fill crosses the L2->IL1 interface: code-origin check,
    // unless the filter CAM has seen this code page recently.
    if (out.l1iFill && monitored()) {
        Addr page = alignDown(line, config.pageBytes);
        if (!cam.lookupInsert(page)) {
            TraceRecord rec;
            rec.kind = TraceKind::CodeOrigin;
            rec.pid = pid;
            rec.core = id;
            rec.pc = line;
            rec.target = page;
            emitRecord(rec);
        }
    }
    return mem::MemFault::None;
}

mem::MemFault
Core::fetchAndRetire(Pid pid, const Instruction &inst)
{
    mem::MemFault fault = doFetch(pid, inst);
    if (fault != mem::MemFault::None)
        return fault;
    ++statInstructions;
    consumeSlot();
    return mem::MemFault::None;
}

ExecResult
Core::executeLoad(Pid pid, const Instruction &inst)
{
    ExecResult result;
    result.fault = fetchAndRetire(pid, inst);
    if (result.fault != mem::MemFault::None)
        return result;

    ++statLoads;
    if (ckptHooks)
        stall(ckptHooks->onLoad(tick, pid, inst.effAddr, inst.bytes));
    mem::MemOutcome out = hierarchy.load(tick, pid, inst.effAddr);
    result.fault = out.fault;
    if (result.fault != mem::MemFault::None)
        return result;
    if (out.latency > config.l1d.hitLatency) {
        statMemStallCycles +=
            static_cast<double>(out.latency - config.l1d.hitLatency);
        stall(out.latency - config.l1d.hitLatency);
    }
    const std::uint32_t off = geom.pageOffset(inst.effAddr);
    if (inst.bytes == 8 && off + 8 <= config.pageBytes)
        result.loadValue = phys.read64(out.pfn, off);
    return result;
}

ExecResult
Core::executeStore(Pid pid, const Instruction &inst)
{
    ExecResult result;
    result.fault = fetchAndRetire(pid, inst);
    if (result.fault != mem::MemFault::None)
        return result;

    ++statStores;
    if (ckptHooks)
        stall(ckptHooks->onStore(tick, pid, inst.effAddr, inst.bytes));
    mem::MemOutcome out = hierarchy.store(tick, pid, inst.effAddr);
    result.fault = out.fault;
    if (result.fault != mem::MemFault::None)
        return result;
    if (out.latency > config.l1d.hitLatency) {
        statMemStallCycles +=
            static_cast<double>(out.latency - config.l1d.hitLatency);
        stall(out.latency - config.l1d.hitLatency);
    }
    const std::uint32_t off = geom.pageOffset(inst.effAddr);
    if (off + inst.bytes <= config.pageBytes) {
        // A store carries at most one 64-bit word of data.
        if (inst.bytes >= 8) {
            phys.write64(out.pfn, off, inst.value);
        } else {
            std::uint64_t v = inst.value;
            phys.write(out.pfn, off, &v, inst.bytes);
        }
    }
    return result;
}

ExecResult
Core::executeSlow(Pid pid, const Instruction &inst)
{
    ExecResult result;
    result.fault = fetchAndRetire(pid, inst);
    if (result.fault != mem::MemFault::None)
        return result;

    switch (inst.op) {
      case Op::Alu:
      case Op::Jump:
        break;

      case Op::Load:
      case Op::Store:
        panic("loads and stores execute through executeLoad/Store");

      case Op::Call: {
        ++statCalls;
        if (monitored()) {
            TraceRecord rec;
            rec.kind = TraceKind::Call;
            rec.pid = pid;
            rec.core = id;
            rec.pc = inst.pc;
            rec.target = inst.target;
            rec.retAddr = inst.nextPc();
            rec.sp = inst.effAddr;
            emitRecord(rec);
        }
        break;
      }

      case Op::CallInd: {
        ++statCalls;
        ++statIndirect;
        if (monitored()) {
            TraceRecord call;
            call.kind = TraceKind::Call;
            call.pid = pid;
            call.core = id;
            call.pc = inst.pc;
            call.target = inst.target;
            call.retAddr = inst.nextPc();
            call.sp = inst.effAddr;
            emitRecord(call);

            TraceRecord xfer;
            xfer.kind = TraceKind::CtrlTransfer;
            xfer.pid = pid;
            xfer.core = id;
            xfer.pc = inst.pc;
            xfer.target = inst.target;
            emitRecord(xfer);
        }
        break;
      }

      case Op::Return: {
        ++statReturns;
        if (monitored()) {
            TraceRecord rec;
            rec.kind = TraceKind::Return;
            rec.pid = pid;
            rec.core = id;
            rec.pc = inst.pc;
            rec.target = inst.target;
            rec.sp = inst.effAddr;
            emitRecord(rec);
        }
        break;
      }

      case Op::JumpInd: {
        ++statIndirect;
        if (monitored()) {
            TraceRecord rec;
            rec.kind = TraceKind::CtrlTransfer;
            rec.pid = pid;
            rec.core = id;
            rec.pc = inst.pc;
            rec.target = inst.target;
            emitRecord(rec);
        }
        break;
      }

      case Op::Setjmp: {
        if (monitored()) {
            TraceRecord rec;
            rec.kind = TraceKind::Setjmp;
            rec.pid = pid;
            rec.core = id;
            rec.pc = inst.pc;
            rec.target = inst.nextPc();
            rec.env = inst.imm;
            emitRecord(rec);
        }
        break;
      }

      case Op::Longjmp: {
        if (monitored()) {
            TraceRecord rec;
            rec.kind = TraceKind::Longjmp;
            rec.pid = pid;
            rec.core = id;
            rec.pc = inst.pc;
            rec.target = inst.target;
            rec.env = inst.imm;
            emitRecord(rec);
        }
        break;
      }

      case Op::Syscall: {
        ++statSyscalls;
        // Second synchronization rule: a syscall waits until every
        // previous instruction has been verified.
        syncWithMonitor();
        if (osHandler) {
            SyscallResult sys = osHandler->syscall(
                tick, pid, inst.imm, inst.value, inst.effAddr);
            stall(sys.cycles);
            result.terminated = sys.terminated;
            result.loadValue = sys.value;
        }
        break;
      }

      case Op::IoWrite: {
        ++statIoWrites;
        // First synchronization rule: I/O writes wait for full
        // verification of all preceding instructions.
        syncWithMonitor();
        break;
      }

      case Op::Halt:
        result.halted = true;
        break;
    }

    return result;
}

} // namespace indra::cpu
