/**
 * @file
 * IndraSystem: the whole INDRA machine (Figure 2 of the paper).
 *
 * One high-privilege resurrector core runs the security monitor; one
 * or more low-privilege resurrectee cores run the OS kernel and the
 * network services. The memory subsystem is privilege-partitioned by
 * the hardware watchdog; each resurrectee streams trace records to
 * the resurrector through a bounded FIFO; the checkpoint engine backs
 * memory state at request granularity and the recovery manager
 * implements the hybrid micro/macro revival scheme.
 *
 * Every service process is one Service record (application, checkpoint
 * engine, macro checkpoint, recovery ladder), whether it is a slot's
 * main service or co-located on the slot's core; all are built by one
 * path and looked up by pid, as the hardware selects per-process state
 * by CR3 tag.
 *
 * The system can also boot in *symmetric* mode (Section 2.3.4): no
 * privilege asymmetry, no monitor, no backup — the configuration used
 * as the normalization baseline in every experiment.
 */

#ifndef INDRA_CORE_SYSTEM_HH
#define INDRA_CORE_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/hooks.hh"
#include "checkpoint/macro_ckpt.hh"
#include "checkpoint/policy.hh"
#include "core/node_config.hh"
#include "core/recovery.hh"
#include "cpu/core.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "mem/bus.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "mem/watchdog.hh"
#include "monitor/monitor.hh"
#include "net/client.hh"
#include "net/request.hh"
#include "net/workload.hh"
#include "obs/trace_log.hh"
#include "os/kernel.hh"
#include "resilience/guard.hh"
#include "resilience/resilience_config.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace indra::core
{

/**
 * Routes checkpoint hooks to the owning process's engine — the
 * hardware equivalent of selecting per-process backup state by the
 * CR3 tag carried on every access.
 */
class PidRoutedHooks : public cpu::CheckpointHooks
{
  public:
    void
    route(Pid pid, cpu::CheckpointHooks *hooks)
    {
        routes[pid] = hooks;
    }

    Cycles
    onStore(Tick tick, Pid pid, Addr vaddr,
            std::uint32_t bytes) override
    {
        auto it = routes.find(pid);
        return it == routes.end()
            ? 0
            : it->second->onStore(tick, pid, vaddr, bytes);
    }

    Cycles
    onLoad(Tick tick, Pid pid, Addr vaddr,
           std::uint32_t bytes) override
    {
        auto it = routes.find(pid);
        return it == routes.end()
            ? 0
            : it->second->onLoad(tick, pid, vaddr, bytes);
    }

  private:
    std::map<Pid, cpu::CheckpointHooks *> routes;
};

/**
 * One service process: its application, checkpoint engines and
 * recovery ladder. A slot's main service and the co-services
 * time-sharing its core are the same record, as in the paper, where
 * the resurrector and the backup hardware pick a process's state by
 * its CR3 tag.
 */
struct Service
{
    Pid pid = 0;
    std::unique_ptr<net::ServiceApplication> app;
    std::unique_ptr<ckpt::CheckpointPolicy> policy;
    std::unique_ptr<ckpt::MacroCheckpoint> macro;
    std::unique_ptr<RecoveryManager> recovery;
    std::uint64_t requestsSinceMacro = 0;

    /** Backup corruption caught by the micro and macro engines. */
    std::uint64_t
    corruptionDetected() const
    {
        return policy->corruptionDetected() + macro->corruptionDetected();
    }
};

/**
 * One resurrectee core and the services on it: the main service (this
 * record's Service base) plus any co-located ones, which share the
 * core, monitor and guard.
 */
struct ServiceSlot : Service
{
    /**
     * Tears the services down before the slot hardware they use: the
     * main service's engines, as base-class members, would otherwise
     * outlive statGroup, from which their stat groups unregister.
     */
    ~ServiceSlot();

    CoreId coreId = 0;
    /** Stat subtree; declared before the hardware registering under
     *  it so the children unregister cleanly. */
    std::unique_ptr<stats::StatGroup> statGroup;
    /**
     * Per-core memory channel. Service timelines are decoupled (each
     * core carries its own tick), so each slot gets a private bus +
     * DRAM model; inter-core bus contention is not modelled.
     */
    std::unique_ptr<mem::MemoryBus> bus;
    std::unique_ptr<mem::DramModel> dram;
    std::unique_ptr<mem::MemHierarchy> hierarchy;
    std::unique_ptr<cpu::Core> core;
    std::unique_ptr<mon::Monitor> monitor;  //!< null in symmetric mode
    std::uint64_t requestsProcessed = 0;

    /**
     * Overload-resilience front door; null when the system's
     * ResilienceConfig arms nothing (the default), in which case
     * request processing is bit-identical to a build without the
     * resilience subsystem.
     */
    std::unique_ptr<resilience::ServiceGuard> guard;

    /** CR3-routed hook mux (installed when a co-service exists). */
    std::unique_ptr<PidRoutedHooks> hookMux;
    /** Additional processes time-sharing this core. */
    std::vector<std::unique_ptr<Service>> coServices;
    /** Process currently on the core (context-switch tracking). */
    Pid runningPid = 0;
};

/**
 * The INDRA machine.
 */
class IndraSystem : public os::KernelListener
{
  public:
    /**
     * Build the machine from one NodeConfig aggregate — the preferred
     * constructor. A default NodeConfig (empty fault plan, disarmed
     * resilience) follows the zero-cost-when-off contract: no
     * injector, no ServiceGuard, simulations bit-identical to a build
     * without those subsystems. The aggregate's adversary knobs are
     * not consumed here; storm drivers seed StormPlan.adversary from
     * them.
     */
    explicit IndraSystem(const NodeConfig &node);
    ~IndraSystem() override;

    IndraSystem(const IndraSystem &) = delete;
    IndraSystem &operator=(const IndraSystem &) = delete;

    /**
     * Run the INDRA boot sequence (Section 3.1.2): the resurrector
     * boots from flash, carves out its private memory, duplicates the
     * BIOS for the resurrectees, and releases them to boot their own
     * OS. In symmetric mode all cores boot equal and no monitor or
     * watchdog protection is installed.
     */
    void boot();

    /** True once boot() has completed. */
    bool booted() const { return isBooted; }

    /** Frames reserved for the resurrector (RTS + private state). */
    std::uint64_t resurrectorFrames() const { return rtsFrames; }

    /**
     * Deploy a service on the next free resurrectee core.
     * @return slot index for use with processRequest().
     */
    std::size_t deployService(const net::DaemonProfile &profile);

    /**
     * Co-locate a second service process on @p host_slot's core
     * (time-shared; records are CR3/pid-tagged so one resurrector
     * monitors both).
     * @return co-service index for processCoRequest().
     */
    std::size_t deployCoService(std::size_t host_slot,
                                const net::DaemonProfile &profile);

    /** Process one request on @p slot_idx's service. */
    net::RequestOutcome processRequest(std::size_t slot_idx,
                                       const net::ServiceRequest &req);

    /** Process one request on a co-located service. */
    net::RequestOutcome processCoRequest(std::size_t slot_idx,
                                         std::size_t co_idx,
                                         const net::ServiceRequest &req);

    /**
     * Closed-loop convenience: run a whole script back to back on
     * @p slot_idx (each request starts when its predecessor ends).
     * Open-loop and storm traffic go through core::NodeHandle.
     */
    std::vector<net::RequestOutcome> runScript(
        const std::vector<net::ServiceRequest> &script,
        std::size_t slot_idx = 0);

    /**
     * Proactively rejuvenate @p slot_idx's main service at @p now:
     * rebuild from the pristine load image through the recovery
     * ladder's rejuvenation path without waiting for a failure. The
     * guard's health machine enters Rejuvenating and the policy's
     * trigger state resets; @p trigger tags the trace event with the
     * firing policy (RejuvenationTrigger value).
     */
    void proactiveRejuvenate(std::size_t slot_idx, Tick now,
                             std::uint8_t trigger);

    /**
     * The service owning @p pid — a slot's main service or one of its
     * co-services — and the slot whose core, monitor and guard it
     * runs on; {nullptr, nullptr} when no such process exists.
     */
    std::pair<ServiceSlot *, Service *> refsForPid(Pid pid);

    // ------------------------------------------------------- access
    const SystemConfig &config() const { return cfg; }
    ServiceSlot &slot(std::size_t idx);
    mem::PhysicalMemory &physMem() { return *phys; }
    mem::MemWatchdog *watchdog() { return watchdogPtr.get(); }
    os::Kernel &kernel() { return *kernelPtr; }
    stats::StatGroup &rootStats() { return statRoot; }

    /** The fault injector, or nullptr when the plan was empty. */
    faults::FaultInjector *faultInjector()
    {
        return injectorPtr.get();
    }

    /**
     * Attach a structured event log (nullable) to every emission site
     * of the machine: monitors and their FIFOs, checkpoint engines,
     * recovery managers, service guards, and the fault injector.
     * Events are tagged with the emitting core's id; services deployed
     * after this call are wired as they come up. Passing nullptr
     * detaches tracing everywhere.
     */
    void attachTraceLog(obs::TraceLog *log);

    /** The attached event log, or nullptr. */
    obs::TraceLog *traceLog() { return traceLogPtr; }

    /**
     * Attach a differential-oracle sink (nullable). The sink sees
     * deploy/epoch/macro/verdict/recovery boundaries; with no sink
     * attached each hook site is one null check.
     */
    void attachChecker(check::CheckSink *sink) { checkSinkPtr = sink; }

    /** The resilience config the system was built with. */
    const resilience::ResilienceConfig &
    resilienceConfig() const
    {
        return resCfg;
    }

    // ------------------------------------------- os::KernelListener
    Cycles onRequestCheckpoint(Tick tick, Pid pid) override;
    void onDynCodeDeclared(Pid pid, Addr base,
                           std::uint64_t len) override;

  private:
    /**
     * Create @p svc's process on @p s's core and build what every
     * service has: the loaded application (registered with the slot's
     * monitor), its checkpoint engine, macro checkpoint and recovery
     * ladder, and the initial macro checkpoint.
     */
    void buildService(ServiceSlot &s, Service &svc,
                      const net::DaemonProfile &profile,
                      std::uint64_t app_seed);

    /** Core of the request-processing loop, shared by all services. */
    net::RequestOutcome runOneRequest(ServiceSlot &s, Service &svc,
                                      const net::ServiceRequest &req);

    /** Drive the fault/crash recovery path for one request. */
    void handleFailure(ServiceSlot &s, Service &svc,
                       net::RequestOutcome &out, Tick fail_tick,
                       bool detected, mon::Violation violation);

    /** Point @p slot's emitters, and every service's, at the log. */
    void wireSlotTracing(ServiceSlot &s);

    SystemConfig cfg;
    obs::TraceLog *traceLogPtr = nullptr;
    resilience::ResilienceConfig resCfg;
    stats::StatGroup statRoot;
    std::unique_ptr<faults::FaultInjector> injectorPtr;
    std::unique_ptr<mem::PhysicalMemory> phys;
    std::unique_ptr<mem::MemWatchdog> watchdogPtr;
    std::unique_ptr<os::Kernel> kernelPtr;
    std::vector<std::unique_ptr<ServiceSlot>> slots;
    bool isBooted = false;
    std::uint64_t rtsFrames = 0;
    std::vector<Pfn> resurrectorPrivate;
    check::CheckSink *checkSinkPtr = nullptr;
};

} // namespace indra::core

#endif // INDRA_CORE_SYSTEM_HH
