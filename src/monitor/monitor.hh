/**
 * @file
 * The resurrector's software security monitor (Section 3.2): the
 * runtime module that drains the trace FIFO, dispatches each record
 * to the right inspector, and raises detection events.
 *
 * Monitoring is *software* on the resurrector core, so each record
 * costs the resurrector a configurable number of cycles (tens to
 * hundreds of instructions per verified event, Section 3.2.5); the
 * TraceFifo timing model turns those costs into backpressure on the
 * resurrectee.
 */

#ifndef INDRA_MON_MONITOR_HH
#define INDRA_MON_MONITOR_HH

#include <cstdint>
#include <optional>

#include "cpu/trace.hh"
#include "faults/fault_injector.hh"
#include "mem/trace_fifo.hh"
#include "obs/trace_log.hh"
#include "monitor/call_return.hh"
#include "monitor/code_origin.hh"
#include "monitor/control_transfer.hh"
#include "monitor/inspector.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::mon
{

/** A detected exploit/corruption. */
struct DetectionEvent
{
    Violation violation = Violation::None;
    cpu::TraceRecord record;
    Tick detectTick = 0;  //!< when the resurrector finished the check
};

/**
 * The monitor; one per resurrectee core in this model (the paper's
 * single resurrector multiplexes — the service costs are identical).
 */
class Monitor : public cpu::TraceSink
{
  public:
    Monitor(const SystemConfig &cfg, stats::StatGroup &parent);

    // ----------------------------------------------- metadata posting
    /** Post a code page of @p pid (program load). */
    void registerCodePage(Pid pid, Addr page_addr);

    /** Post a function entry (symbol table). */
    void registerFunctionEntry(Pid pid, Addr entry);

    /** Post a shared-library entry point (export/import list). */
    void registerLibraryEntry(Pid pid, Addr entry);

    /** Post a declared dynamic-code region. */
    void registerDynCodeRegion(Pid pid, Addr base, std::uint64_t len);

    /** Drop all metadata and shadow state of @p pid. */
    void forgetProcess(Pid pid);

    // ---------------------------------------------------- trace sink
    Tick submit(const cpu::TraceRecord &rec, Tick tick) override;
    Tick drainTick() const override;

    // ----------------------------------------------------- detection
    /** Oldest unconsumed detection, if any. */
    const std::optional<DetectionEvent> &pendingDetection() const
    {
        return pending;
    }

    /** Consume the pending detection (recovery has been triggered). */
    void clearDetection() { pending.reset(); }

    /**
     * Recovery completed for @p pid: reset the shadow stack so
     * monitoring resumes from the known good point.
     */
    void onRecovery(Pid pid);

    /**
     * Attach a fault injector (nullable). Records submitted after
     * this may be dropped in transit, corrupted before inspection,
     * have their verdict suppressed (false negative) or delayed.
     */
    void setFaultInjector(faults::FaultInjector *inj) { injector = inj; }

    /**
     * Attach a structured event log (nullable); @p source identifies
     * the monitored core in the stream. Violations are traced at the
     * tick the resurrector finishes the check, and the owned FIFO
     * reports its watermark crossings to the same log.
     */
    void setTraceLog(obs::TraceLog *log, std::uint32_t source);

    // -------------------------------------------------------- access
    mem::TraceFifo &fifo() { return traceFifo; }
    const mem::TraceFifo &fifo() const { return traceFifo; }

    /** Trace-FIFO occupancy a producer would see at @p tick. */
    std::uint32_t
    fifoOccupancyAt(Tick tick) const
    {
        return traceFifo.occupancyAt(tick);
    }
    std::uint64_t recordsProcessed() const;
    std::uint64_t violationsDetected() const;

    /**
     * Cycles from a violating record's push to the completion of its
     * verification — the window in which a compromised resurrectee
     * runs before the resurrector interrupts it.
     */
    const stats::Distribution &detectionLatency() const
    {
        return statDetectionLatency;
    }
    CallReturnInspector &callReturn() { return callReturnInspector; }

  private:
    /** Resurrector cycles to verify a record of this kind. */
    Cycles costOf(cpu::TraceKind kind) const;

    const SystemConfig &config;
    faults::FaultInjector *injector = nullptr;
    obs::TraceLog *traceLog = nullptr;
    std::uint32_t traceSource = 0;
    mem::TraceFifo traceFifo;
    CodeOriginInspector codeOriginInspector;
    CallReturnInspector callReturnInspector;
    CtrlTransferInspector ctrlInspector;
    std::optional<DetectionEvent> pending;

    stats::StatGroup statGroup;
    stats::Scalar statRecords;
    stats::Scalar statCodeOriginChecks;
    stats::Scalar statCallRetChecks;
    stats::Scalar statCtrlChecks;
    stats::Scalar statViolations;
    stats::Scalar statBusyCycles;
    stats::Distribution statDetectionLatency;
};

} // namespace indra::mon

#endif // INDRA_MON_MONITOR_HH
