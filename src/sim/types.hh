/**
 * @file
 * Fundamental scalar types shared by every INDRA module.
 *
 * The simulator is timed in core-clock ticks (one Tick == one cycle of
 * the resurrectee/resurrector core clock). All addresses are byte
 * addresses in a flat 64-bit space; virtual and physical addresses use
 * the same width.
 */

#ifndef INDRA_SIM_TYPES_HH
#define INDRA_SIM_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace indra
{

/** Simulated time, in core-clock cycles. */
using Tick = std::uint64_t;

/** A duration, also in core-clock cycles. */
using Cycles = std::uint64_t;

/** Byte address (virtual or physical; context decides). */
using Addr = std::uint64_t;

/** Virtual page number. */
using Vpn = std::uint64_t;

/** Physical page number (physical frame number). */
using Pfn = std::uint64_t;

/** Identifier of a processor core on the die. */
using CoreId = std::uint16_t;

/** Process identifier; doubles as the CR3 tag in trace records. */
using Pid = std::uint32_t;

/** Sentinel for "no tick" / "never". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Sentinel address used for "invalid". */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel physical frame number. */
constexpr Pfn invalidPfn = std::numeric_limits<Pfn>::max();

/**
 * Privilege level of a core in INDRA's asymmetric configuration
 * (Section 2.3.1 of the paper). The resurrector runs at High privilege
 * and may access the whole physical address space; resurrectees run at
 * Low privilege and are confined by the memory watchdog.
 */
enum class Privilege : std::uint8_t
{
    Low = 0,   //!< resurrectee: confined to its assigned regions
    High = 1,  //!< resurrector: full physical memory and I/O access
};

/** True if @p a is aligned to @p align (a power of two). */
constexpr bool
isAligned(Addr a, std::uint64_t align)
{
    return (a & (align - 1)) == 0;
}

/** Round @p a down to a multiple of @p align (a power of two). */
constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** True if @p x is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)); @p x must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    unsigned l = 0;
    while (x >>= 1)
        ++l;
    return l;
}

/**
 * @p tick + @p delta, saturating at maxTick instead of wrapping.
 *
 * Event-skipping advancement adds whole event gaps (FIFO service ends,
 * retry backoffs, watchdog deadlines) to 64-bit ticks in one step, so
 * a sum near the end of the representable range must pin to the "never"
 * sentinel rather than silently wrap to a tick in the past.
 */
constexpr Tick
saturatingAdd(Tick tick, Cycles delta)
{
    return tick > maxTick - delta ? maxTick : tick + delta;
}

} // namespace indra

#endif // INDRA_SIM_TYPES_HH
