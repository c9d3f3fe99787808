/**
 * @file
 * The service application and its per-request instruction-stream
 * generator.
 *
 * A RequestExecution produces one request's MiniIsa stream, one
 * instruction per next(). It reads only its DrawPlan and the service
 * program behind it, which nothing mutates while a request runs, and
 * its own state: no simulation state reaches it. So the stream can be
 * drawn ahead of the core that retires it, on another thread
 * (GeneratorPipe), and is the same stream wherever it is drawn.
 *
 * The stream models request processing as the paper's daemons
 * exhibit it — a dispatcher loop calling into a hot set of handler
 * functions (with loops, nested calls, indirect and library calls),
 * loads/stores over a ~50-page working set with a controlled
 * dirty-line density, interspersed syscalls and I/O writes, and, for
 * malicious requests, the architectural effects of the exploit
 * payload. Every draw whose parameters depend only on the daemon
 * profile and program is prepared once in the service's DrawPlan.
 */

#ifndef INDRA_NET_WORKLOAD_HH
#define INDRA_NET_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cpu/isa.hh"
#include "net/request.hh"
#include "net/service_program.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace indra::net
{

/**
 * The draws of a service's requests, prepared once from its profile
 * and program: every probability, bound, Zipf and geometric draw
 * whose parameters are fixed, and the op-class thresholds of a body
 * slot. Each gives exactly the draws and the results of the per-call
 * Pcg32 formula it replaces.
 */
struct DrawPlan
{
    DrawPlan(const ServiceProgram &prog, std::uint32_t page_bytes);

    DrawPlan(const DrawPlan &) = delete;
    DrawPlan &operator=(const DrawPlan &) = delete;

    const ServiceProgram &prog;
    const DaemonProfile &profile;
    std::uint32_t pageBytes;
    Addr pageMask;  //!< pageBytes - 1 (pageBytes is a power of 2)
    /** Pages a request plans, and the writable lines of each. */
    std::uint32_t plannedPages;
    std::uint32_t dirtyLines;

    Chance longjmp;
    Chance heapAlloc;
    Chance coldCall;
    Chance libraryCall;
    Chance indirectCall;
    Chance leafBurst;
    Chance stackLoad;
    Chance stackStore;
    Chance seqLoad;
    Chance seqStore;

    /**
     * A body slot draws one word r and is a load below loadBelow, a
     * store below storeBelow, and a call candidate below the call
     * threshold of its position (Chance::belowThreshold of the same
     * double sums the op fractions add up to).
     */
    std::uint64_t loadBelow;
    std::uint64_t storeBelow;
    std::uint64_t callBelow;          //!< mid-body slot
    std::uint64_t preambleCallBelow;  //!< first slots of a function
    std::uint64_t leafRunCallBelow;   //!< inside a leaf-call run

    BoundedDraw appFunction;
    BoundedDraw libFunction;
    BoundedDraw dataPage;
    BoundedDraw plannedPage;
    BoundedDraw writableLine;
    BoundedDraw pageLine;
    BoundedDraw lineWord;
    BoundedDraw stackOffset;
    BoundedDraw leafRunLength;
    ZipfTable hotFunction;
    ZipfTable dataPageRank;
    /** Extra passes over a block (p = 1 / blockRepeat). */
    GeometricDraw blockRepeats;
};

/**
 * Generator of one request's instruction stream.
 *
 * Invariant: next() reads only this object, its plan and the plan's
 * program and profile; none of those change while a request runs.
 * After construction next() never allocates (its call frames and
 * exploit payload are reserved here), so it may run on a thread that
 * must not touch the allocator.
 */
class RequestExecution
{
  public:
    /** Longest exploit payload buildExploit() emits. */
    static constexpr std::size_t maxExploitInstrs = 43;

    /**
     * @param plan       the service's prepared draws (outlives this)
     * @param rng        per-request random stream
     * @param attack     payload carried by the request
     * @param surface_dormant this benign request trips previously
     *                   planted dormant damage (crashes mid-body)
     * @param weight     request length multiplier
     */
    RequestExecution(const DrawPlan &plan, Pcg32 rng, AttackKind attack,
                     bool surface_dormant, double weight = 1.0);

    /**
     * Write the next instruction, every field of it, to @p out.
     * @return false when the stream is exhausted.
     */
    bool next(cpu::Instruction &out);

    /** Instructions emitted so far. */
    std::uint64_t emitted() const { return count; }

    /** Data pages this request planned to touch (for tests). */
    std::vector<Vpn> plannedPages() const;

  private:
    enum class Phase : std::uint8_t
    {
        Prologue,
        Body,
        Exploit,
        Unwind,
        Epilogue,
        Done,
    };

    struct Frame
    {
        std::uint32_t fnIdx = 0;
        Addr entry = 0;
        std::uint32_t blocks = 0;
        std::uint32_t curBlock = 0;
        std::uint32_t repsLeft = 1;
        std::uint32_t instrInBlock = 0;
        Addr retAddr = 0;
        Addr spAtEntry = 0;
    };

    struct PagePlan
    {
        Addr base = 0;
        std::vector<std::uint16_t> writableLines;
    };

    enum class EvKind : std::uint8_t
    {
        Open,
        Close,
        IoWrite,
        Log,
        Alloc,
    };

    void planPages();
    void buildEventQueue();
    std::uint32_t pickFunction();
    std::uint32_t drawRepeats();
    void pushCall(cpu::Instruction &out, Addr call_pc, bool indirect);
    void emitReturn(cpu::Instruction &out);
    void emitBodyInstr(cpu::Instruction &out);
    void emitEvent(cpu::Instruction &out, Addr pc);
    void buildExploit();
    Addr randomDataLineAddr(bool writable);
    Addr nextLoadAddr();
    Addr nextStoreAddr();
    Addr stackScratchAddr();

    const DrawPlan &plan;
    const ServiceProgram &prog;
    const DaemonProfile &profile;
    Pcg32 rng;
    AttackKind attack;
    bool surfaceDormant;
    std::uint32_t pageBytes;

    Phase phase = Phase::Prologue;
    std::uint32_t prologueStep = 0;
    std::uint64_t budget = 0;
    std::uint64_t triggerBudget = 0;
    std::uint64_t count = 0;
    Addr sp = 0;
    std::vector<Frame> frames;
    std::vector<PagePlan> pages;
    /** Queued events; those before nextEvent have issued. */
    std::vector<EvKind> events;
    std::size_t nextEvent = 0;
    std::uint64_t topCalls = 0;
    std::vector<cpu::Instruction> exploitSeq;
    std::size_t exploitIdx = 0;
    bool exploitDone = false;
    bool crashEmitted = false;
    /** Sequential-access cursors (parsers stream through buffers). */
    Addr seqLoadAddr = 0;
    Addr seqStoreAddr = 0;
    /** Remaining calls in the current leaf-call run. */
    std::uint32_t burstCallsLeft = 0;
    /** Budget threshold at which this request longjmps (0 = never). */
    std::uint64_t longjmpAtBudget = 0;
    bool longjmpDone = false;
};

/**
 * The running service: program image + dormant-damage bookkeeping +
 * the per-request generator factory.
 */
class ServiceApplication
{
  public:
    /**
     * @param profile daemon shape
     * @param seed    top-level seed (determines everything)
     * @param page_bytes system page size
     */
    ServiceApplication(const DaemonProfile &profile, std::uint64_t seed,
                       std::uint32_t page_bytes);

    // The draw plan refers to the program held alongside it.
    ServiceApplication(const ServiceApplication &) = delete;
    ServiceApplication &operator=(const ServiceApplication &) = delete;

    const ServiceProgram &program() const { return prog; }
    const DaemonProfile &profile() const { return _profile; }

    /** Number of requests after a dormant plant before it surfaces. */
    static constexpr std::uint64_t dormantDelay = 3;

    /** Begin processing @p req; returns its instruction generator. */
    RequestExecution beginRequest(const ServiceRequest &req);

    /** True if planted damage is still live. */
    bool hasDormantDamage() const { return dormantSurfaceAt.has_value(); }

    /** Macro recovery restored a pre-plant image. */
    void
    healDormantDamage()
    {
        dormantSurfaceAt.reset();
        _dormantDomain = domainUnassigned;
    }

    /**
     * Isolated domain the live dormant damage was planted in
     * (DomainRewind only; domainUnassigned otherwise). A confined
     * rewind of exactly this domain restores the pre-plant anchors
     * and heals the damage.
     */
    std::uint32_t dormantDomain() const { return _dormantDomain; }

  private:
    DaemonProfile _profile;
    ServiceProgram prog;
    DrawPlan plan;
    Pcg32 rng;
    std::optional<std::uint64_t> dormantSurfaceAt;
    std::uint32_t _dormantDomain = domainUnassigned;
};

} // namespace indra::net

#endif // INDRA_NET_WORKLOAD_HH
