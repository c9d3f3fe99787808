#include "monitor/monitor.hh"

#include "sim/logging.hh"

namespace indra::mon
{

Monitor::Monitor(const SystemConfig &cfg, stats::StatGroup &parent)
    : config(cfg),
      traceFifo(cfg.traceFifoEntries, parent),
      codeOriginInspector(cfg.pageBytes),
      statGroup(parent, "monitor"),
      statRecords(statGroup, "records", "trace records processed"),
      statCodeOriginChecks(statGroup, "code_origin_checks",
                           "code-origin verifications"),
      statCallRetChecks(statGroup, "call_ret_checks",
                        "call/return verifications"),
      statCtrlChecks(statGroup, "ctrl_checks",
                     "control-transfer verifications"),
      statViolations(statGroup, "violations", "violations detected"),
      statBusyCycles(statGroup, "busy_cycles",
                     "resurrector cycles spent verifying"),
      statDetectionLatency(statGroup, "detection_latency",
                           "cycles from violating record push to "
                           "detection")
{
}

void
Monitor::setTraceLog(obs::TraceLog *log, std::uint32_t source)
{
    traceLog = log;
    traceSource = source;
    traceFifo.setTraceLog(log, source);
}

void
Monitor::registerCodePage(Pid pid, Addr page_addr)
{
    codeOriginInspector.registerCodePage(pid, page_addr);
}

void
Monitor::registerFunctionEntry(Pid pid, Addr entry)
{
    ctrlInspector.registerFunctionEntry(pid, entry);
}

void
Monitor::registerLibraryEntry(Pid pid, Addr entry)
{
    ctrlInspector.registerLibraryEntry(pid, entry);
}

void
Monitor::registerDynCodeRegion(Pid pid, Addr base, std::uint64_t len)
{
    codeOriginInspector.registerDynCodeRegion(pid, base, len);
    ctrlInspector.registerDynCodeRegion(pid, base, len);
}

void
Monitor::forgetProcess(Pid pid)
{
    codeOriginInspector.forgetProcess(pid);
    ctrlInspector.forgetProcess(pid);
    callReturnInspector.resetProcess(pid);
}

Cycles
Monitor::costOf(cpu::TraceKind kind) const
{
    // When one resurrector multiplexes every resurrectee, each
    // record effectively waits through the other cores' time slices.
    Cycles slices =
        config.sharedResurrector ? config.numResurrectees : 1;
    switch (kind) {
      case cpu::TraceKind::CodeOrigin:
        return (config.recordDequeueCycles +
                config.codeOriginCheckCycles) * slices;
      case cpu::TraceKind::Call:
      case cpu::TraceKind::Return:
      case cpu::TraceKind::Setjmp:
        return (config.recordDequeueCycles +
                config.callReturnCheckCycles) * slices;
      case cpu::TraceKind::CtrlTransfer:
      case cpu::TraceKind::Longjmp:
        return (config.recordDequeueCycles +
                config.ctrlTransferCheckCycles) * slices;
    }
    panic("unknown trace kind");
}

Tick
Monitor::submit(const cpu::TraceRecord &rec, Tick tick)
{
    // Transport fault: the record is lost between the resurrectee and
    // the resurrector. No slot is occupied, no check is run — the
    // monitor simply never learns about this event.
    if (injector && injector->fire(faults::FaultKind::TraceDrop)) {
        traceFifo.noteDropped();
        return tick;
    }

    cpu::TraceRecord inspected = rec;
    if (injector && injector->fire(faults::FaultKind::TraceCorrupt)) {
        // Flip one bit in one of the record's address fields; the
        // inspectors then judge a record that lies about what the
        // resurrectee did (spurious violations or masked ones).
        Addr *fields[] = {&inspected.pc, &inspected.target,
                          &inspected.retAddr, &inspected.sp};
        std::uint32_t f =
            injector->pick(faults::FaultKind::TraceCorrupt, 4);
        std::uint32_t bit =
            injector->pick(faults::FaultKind::TraceCorrupt, 64);
        *fields[f] ^= 1ULL << bit;
    }

    ++statRecords;
    Cycles cost = costOf(inspected.kind);
    statBusyCycles += static_cast<double>(cost);
    mem::FifoPushResult push = traceFifo.push(tick, cost);

    Verdict verdict;
    switch (inspected.kind) {
      case cpu::TraceKind::CodeOrigin:
        ++statCodeOriginChecks;
        verdict = codeOriginInspector.inspect(inspected);
        break;
      case cpu::TraceKind::Call:
        ++statCallRetChecks;
        callReturnInspector.onCall(inspected);
        break;
      case cpu::TraceKind::Return:
        ++statCallRetChecks;
        verdict = callReturnInspector.onReturn(inspected);
        break;
      case cpu::TraceKind::Setjmp:
        ++statCallRetChecks;
        callReturnInspector.onSetjmp(inspected);
        break;
      case cpu::TraceKind::Longjmp:
        ++statCtrlChecks;
        verdict = callReturnInspector.onLongjmp(inspected);
        break;
      case cpu::TraceKind::CtrlTransfer:
        ++statCtrlChecks;
        verdict = ctrlInspector.inspect(inspected);
        break;
    }

    if (!verdict.ok() && injector &&
        injector->fire(faults::FaultKind::MonitorFalseNegative)) {
        // The check itself misfires: the monitor saw the violation
        // and concluded everything was fine.
        verdict = Verdict{};
    }

    if (!verdict.ok()) {
        ++statViolations;
        statDetectionLatency.sample(
            static_cast<double>(push.serviceEndTick - tick));
        INDRA_TRACE(traceLog, push.serviceEndTick,
                    obs::EventKind::MonitorViolation, traceSource,
                    static_cast<std::uint64_t>(verdict.violation),
                    inspected.pc);
        if (!pending) {
            Tick verdict_tick = push.serviceEndTick;
            if (injector)
                verdict_tick += injector->verdictDelay();
            pending = DetectionEvent{verdict.violation, inspected,
                                     verdict_tick};
        }
    }
    return push.pushDoneTick;
}

Tick
Monitor::drainTick() const
{
    return traceFifo.drainTick();
}

void
Monitor::onRecovery(Pid pid)
{
    callReturnInspector.resetProcess(pid);
}

std::uint64_t
Monitor::recordsProcessed() const
{
    return static_cast<std::uint64_t>(statRecords.value());
}

std::uint64_t
Monitor::violationsDetected() const
{
    return static_cast<std::uint64_t>(statViolations.value());
}

} // namespace indra::mon
