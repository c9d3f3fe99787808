/**
 * @file
 * The resurrectee-side OS layer: process table and syscall dispatch.
 *
 * This is the "full operating system" a resurrectee boots (the
 * resurrector runs its own tiny runtime, modelled in src/monitor and
 * src/core). The kernel is intentionally thin — processes, address
 * spaces, resources, and the handful of syscalls the service
 * applications and INDRA need.
 */

#ifndef INDRA_OS_KERNEL_HH
#define INDRA_OS_KERNEL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cpu/hooks.hh"
#include "os/address_space.hh"
#include "os/process.hh"
#include "os/resources.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::os
{

/** Fixed kernel-time costs (core cycles) per syscall class. */
struct KernelCosts
{
    Cycles openFile = 400;
    Cycles closeFile = 200;
    Cycles spawnChild = 2500;
    Cycles allocPerPage = 300;
    Cycles writeLog = 150;
    Cycles requestCheckpoint = 250;  //!< plus the engine's own cost
    Cycles declareDynCode = 500;
};

/**
 * Events the kernel raises toward the INDRA framework (implemented by
 * core::IndraSystem): request boundaries and dynamic-code
 * declarations, both of which the resurrector must learn about.
 */
class KernelListener
{
  public:
    virtual ~KernelListener() = default;

    /**
     * The service called SyscallNo::RequestCheckpoint (GTS was already
     * incremented). @return extra cycles charged by the backup engine.
     */
    virtual Cycles onRequestCheckpoint(Tick tick, Pid pid) = 0;

    /** A DynCode region was declared at [@p base, @p base + @p len). */
    virtual void onDynCodeDeclared(Pid pid, Addr base,
                                   std::uint64_t len) = 0;
};

/** One live process. */
struct Process
{
    std::unique_ptr<ProcessContext> context;
    std::unique_ptr<AddressSpace> space;
    std::unique_ptr<SystemResources> resources;
};

/**
 * Process table + syscall dispatch. Also the machine-wide translation
 * source: the MMU walks the page table selected by the access's
 * CR3/pid tag, which is exactly translate(pid, vpn) routed to the
 * owning process's address space.
 */
class Kernel : public cpu::SyscallHandler, public mem::Translator
{
  public:
    Kernel(mem::PhysicalMemory &phys, std::uint32_t page_bytes,
           mem::MemWatchdog *watchdog, stats::StatGroup &parent);

    void setListener(KernelListener *l) { listener = l; }

    /**
     * Create a process whose pages are granted to @p core.
     * @return the new pid.
     */
    Pid createProcess(const std::string &name, CoreId core);

    /** Destroy a process and free all of its pages. */
    void destroyProcess(Pid pid);

    bool hasProcess(Pid pid) const;
    Process &process(Pid pid);
    const Process &process(Pid pid) const;

    // cpu::SyscallHandler
    cpu::SyscallResult syscall(Tick tick, Pid pid, std::uint32_t sysno,
                               std::uint64_t arg0,
                               std::uint64_t arg1) override;

    // mem::Translator: route by the access's pid tag.
    Pfn translate(Pid pid, Vpn vpn) const override;

  private:
    mem::PhysicalMemory &phys;
    std::uint32_t pageBytes;
    mem::MemWatchdog *watchdog;
    KernelListener *listener = nullptr;
    KernelCosts costs;
    Pid nextPid = 100;
    std::map<Pid, Process> processes;
    /**
     * translate()'s memo of the last pid it routed and that process's
     * address space, so a run of accesses by one process skips the
     * process-table search. destroyProcess clears it.
     */
    mutable Pid lastPid = 0;
    mutable const AddressSpace *lastSpace = nullptr;

    stats::StatGroup statGroup;
    stats::Scalar statSyscalls;
    stats::Scalar statCrashes;
};

} // namespace indra::os

#endif // INDRA_OS_KERNEL_HH
