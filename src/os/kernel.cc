#include "os/kernel.hh"

#include "cpu/isa.hh"
#include "sim/logging.hh"

namespace indra::os
{

Kernel::Kernel(mem::PhysicalMemory &phys_ref, std::uint32_t page_bytes,
               mem::MemWatchdog *watchdog_ptr, stats::StatGroup &parent)
    : phys(phys_ref), pageBytes(page_bytes), watchdog(watchdog_ptr),
      statGroup(parent, "kernel"),
      statSyscalls(statGroup, "syscalls", "syscalls handled"),
      statCrashes(statGroup, "crashes", "service crashes observed")
{
}

Pid
Kernel::createProcess(const std::string &name, CoreId core)
{
    Pid pid = nextPid++;
    Process proc;
    proc.context = std::make_unique<ProcessContext>(pid, name);
    proc.space = std::make_unique<AddressSpace>(pid, phys, pageBytes,
                                                watchdog, core);
    proc.resources = std::make_unique<SystemResources>(pid);
    processes.emplace(pid, std::move(proc));
    return pid;
}

void
Kernel::destroyProcess(Pid pid)
{
    auto it = processes.find(pid);
    panic_if(it == processes.end(), "destroying unknown pid ", pid);
    processes.erase(it);
    lastSpace = nullptr;
}

bool
Kernel::hasProcess(Pid pid) const
{
    return processes.count(pid) != 0;
}

Process &
Kernel::process(Pid pid)
{
    auto it = processes.find(pid);
    panic_if(it == processes.end(), "unknown pid ", pid);
    return it->second;
}

const Process &
Kernel::process(Pid pid) const
{
    auto it = processes.find(pid);
    panic_if(it == processes.end(), "unknown pid ", pid);
    return it->second;
}

Pfn
Kernel::translate(Pid pid, Vpn vpn) const
{
    if (!lastSpace || lastPid != pid) {
        auto it = processes.find(pid);
        if (it == processes.end())
            return invalidPfn;
        lastPid = pid;
        lastSpace = it->second.space.get();
    }
    return lastSpace->translate(pid, vpn);
}

cpu::SyscallResult
Kernel::syscall(Tick tick, Pid pid, std::uint32_t sysno,
                std::uint64_t arg0, std::uint64_t arg1)
{
    ++statSyscalls;
    cpu::SyscallResult result;
    Process &proc = process(pid);

    switch (static_cast<cpu::SyscallNo>(sysno)) {
      case cpu::SyscallNo::RequestCheckpoint: {
        proc.context->incrementGts();
        result.cycles = costs.requestCheckpoint;
        if (listener)
            result.cycles += listener->onRequestCheckpoint(tick, pid);
        result.value = proc.context->gts();
        break;
      }

      case cpu::SyscallNo::OpenFile: {
        std::int32_t fd =
            proc.resources->openFile("file-" + std::to_string(arg0));
        result.cycles = costs.openFile;
        result.value = static_cast<std::uint64_t>(fd);
        break;
      }

      case cpu::SyscallNo::CloseFile: {
        if (arg0 == 0)
            proc.resources->closeNewestFile();
        else
            proc.resources->closeFile(static_cast<std::int32_t>(arg0));
        result.cycles = costs.closeFile;
        break;
      }

      case cpu::SyscallNo::SpawnChild: {
        Pid child = proc.resources->spawnChild();
        result.cycles = costs.spawnChild;
        result.value = child;
        break;
      }

      case cpu::SyscallNo::AllocPages: {
        std::uint64_t pages = arg0 ? arg0 : 1;
        Vpn first = proc.resources->growHeap(*proc.space, pages);
        result.cycles = costs.allocPerPage * pages;
        result.value = first * pageBytes;
        break;
      }

      case cpu::SyscallNo::WriteLog: {
        proc.resources->appendLog("req-log " + std::to_string(arg0));
        result.cycles = costs.writeLog;
        break;
      }

      case cpu::SyscallNo::Crash: {
        ++statCrashes;
        result.terminated = true;
        break;
      }

      case cpu::SyscallNo::DeclareDynCode: {
        result.cycles = costs.declareDynCode;
        if (listener)
            listener->onDynCodeDeclared(pid, arg0, arg1);
        break;
      }

      default:
        warn("unknown syscall ", sysno, " from pid ", pid);
        result.cycles = 100;
        break;
    }
    return result;
}

} // namespace indra::os
