/**
 * @file
 * The invariant registry: cheap structural assertions over the live
 * dependability machinery, evaluated at monitor-verdict and recovery
 * boundaries when checking is compiled in.
 *
 * Each invariant is a named predicate over a CheckContext — a
 * read-only view of one service's checkpoint engine, resilience
 * guard, watchdog, and memory. Violations are collected, never
 * thrown: the oracle reports, the simulation continues, and the
 * fuzzer shrinks.
 */

#ifndef INDRA_ORACLE_INVARIANTS_HH
#define INDRA_ORACLE_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace indra::ckpt { class DeltaBackup; }
namespace indra::mem { class MemWatchdog; class PhysicalMemory; }
namespace indra::os { class AddressSpace; }
namespace indra::resilience
{
enum class HealthState : std::uint8_t;
class ServiceGuard;
}

namespace indra::check
{

/** Every invariant the registry knows, plus the memory oracle's id. */
enum class InvariantId : std::uint8_t
{
    MemoryRestoreExact = 0,   //!< restored memory == golden image
    DeltaRollbackConsistent,  //!< rollbackVld <=> rollback bits set
    DeltaDirtySubsetTouched,  //!< touched set backed by live records
    BackupFramesLive,         //!< backup pages point at live frames
    HealthTransitionLegal,    //!< health log walks legal edges only
    TokenConservation,        //!< bucket level within [0, burst]
    WatchdogGrantsBacked,     //!< granted frames are allocated
    FifoModelConforms,        //!< trace FIFO == reference replay
    UndoLogModelConforms,     //!< update log == sorted-map reference
    RejuvenationClearsDormant, //!< no dormant damage survives rebirth
    DomainRewindConfined,     //!< rewind touched only the attributed
                              //!< domain: rewound pages == anchors,
                              //!< every other page == epoch image
    DomainRewindClearsDormant, //!< no dormant damage survives a rewind
};

/** Number of distinct invariant ids. */
constexpr std::size_t invariantIdCount = 12;

/** Printable invariant name ("memory-restore-exact", ...). */
const char *invariantName(InvariantId id);

/** One detected oracle violation. */
struct Violation
{
    InvariantId id = InvariantId::MemoryRestoreExact;
    Tick tick = 0;
    Pid pid = 0;
    std::uint64_t epoch = 0;
    /**
     * Fault sites fired before this violation was reported (the size
     * of the injector's site log at report time; 0 when no injector).
     * Site index faultSitesSeen - 1 is the nearest prior injection —
     * rca's attribution anchor for oracle-detected failures.
     */
    std::uint64_t faultSitesSeen = 0;
    std::string detail;

    std::string describe() const;
};

/**
 * Read-only view of one service's machinery at a check boundary.
 * Pointers are nullable: an invariant whose subject is absent (e.g.
 * the delta engine under a different checkpoint scheme, or the guard
 * when resilience is disarmed) passes vacuously.
 */
struct CheckContext
{
    const ckpt::DeltaBackup *delta = nullptr;
    const resilience::ServiceGuard *guard = nullptr;
    const mem::MemWatchdog *watchdog = nullptr;
    const mem::PhysicalMemory *phys = nullptr;
    const os::AddressSpace *space = nullptr;
    std::uint64_t gts = 0;
};

/**
 * True when the health state machine may move from @p from to
 * @p to (health.hh's documented edge set; Rejuvenating is reachable
 * from every state because the ladder can rebuild at any time).
 */
bool healthEdgeLegal(resilience::HealthState from,
                     resilience::HealthState to);

/**
 * The registry: a list of (id, predicate) entries evaluated together.
 * A predicate returns true when the invariant holds and fills
 * @p detail otherwise. Constructing the registry installs the
 * built-in catalog; tests can add() their own.
 */
class InvariantRegistry
{
  public:
    using Predicate =
        std::function<bool(const CheckContext &, std::string &detail)>;

    /** Build the registry with the built-in catalog installed. */
    InvariantRegistry();

    /** Register an extra invariant (test instrumentation). */
    void add(InvariantId id, Predicate fn);

    /**
     * Evaluate every invariant against @p ctx, appending one
     * Violation per failed predicate to @p out.
     * @return number of violations appended.
     */
    std::size_t evaluate(const CheckContext &ctx, Tick tick, Pid pid,
                         std::uint64_t epoch,
                         std::vector<Violation> &out) const;

    std::size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        InvariantId id;
        Predicate fn;
    };
    std::vector<Entry> entries;
};

} // namespace indra::check

#endif // INDRA_ORACLE_INVARIANTS_HH
