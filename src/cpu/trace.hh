/**
 * @file
 * Monitor trace records — the information a resurrectee core streams
 * to the resurrector through the hardware FIFO (Section 3.2), plus the
 * abstract sink interface the monitor implements.
 */

#ifndef INDRA_CPU_TRACE_HH
#define INDRA_CPU_TRACE_HH

#include <cstdint>

#include "sim/types.hh"

namespace indra::cpu
{

/** Classes of record pushed into the trace FIFO. */
enum class TraceKind : std::uint8_t
{
    CodeOrigin,    //!< L1I fill: page address + fill address
    Call,          //!< function call: target, return address, sp
    Return,        //!< function return: actual target, sp
    CtrlTransfer,  //!< indirect call / computed jump: source + target
    Setjmp,        //!< setjmp: env id + resume pc
    Longjmp,       //!< longjmp: env id + actual target
};

/**
 * One trace record. As in the paper, each record is tagged with the
 * process (CR3/pid) so the resurrector selects the right metadata.
 */
struct TraceRecord
{
    TraceKind kind = TraceKind::CodeOrigin;
    Pid pid = 0;
    CoreId core = 0;
    Addr pc = 0;       //!< producing instruction (or fill address)
    Addr target = 0;   //!< transfer destination / fill page address
    Addr retAddr = 0;  //!< Call: architected return address
    Addr sp = 0;       //!< stack pointer at the event
    std::uint32_t env = 0;  //!< setjmp/longjmp env id
};

/**
 * Where a resurrectee's records go. The monitor (src/monitor)
 * implements this on top of the TraceFifo timing model; the core only
 * sees push-completion times so FIFO backpressure stalls it naturally.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Push @p rec at time @p tick.
     * @return the tick at which the push completes (>= tick when the
     *         FIFO was full and the producer stalled).
     */
    virtual Tick submit(const TraceRecord &rec, Tick tick) = 0;

    /**
     * Tick by which every record submitted so far has been verified.
     * Cores synchronize on this before I/O writes and syscalls
     * (Section 3.2.5).
     */
    virtual Tick drainTick() const = 0;
};

} // namespace indra::cpu

#endif // INDRA_CPU_TRACE_HH
