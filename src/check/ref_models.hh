/**
 * @file
 * Golden reference models for differential checking.
 *
 * Each model restates a production component's contract in the most
 * obviously-correct (and unapologetically slow) way, so the two can be
 * compared behaviour-for-behaviour:
 *
 *  - RefMemory: a flat map of full page images. Captured at a
 *    checkpoint boundary, it is what a byte-exact restore must
 *    reproduce — no bitvectors, no lazy rollback, just bytes.
 *  - RefFifo: the trace FIFO's analytic timing contract replayed with
 *    a complete push history instead of a bounded deque.
 *  - RefUndoLog: the MemoryUpdateLog's restore contract as a sorted
 *    map keeping only the *oldest* pre-store value per address — the
 *    value a correct undo replay must leave behind.
 *  - RefDomain: the os::DomainMap ownership contract restated with
 *    the full writer *set* per page — first writer owns, any second
 *    writer makes the page shared, and the set of pages a confined
 *    rewind may restore falls out by definition.
 */

#ifndef INDRA_ORACLE_REF_MODELS_HH
#define INDRA_ORACLE_REF_MODELS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace indra::mem { class PhysicalMemory; }
namespace indra::os { class AddressSpace; }

namespace indra::check
{

/**
 * Flat byte-array memory image, keyed by virtual page number. The
 * sorted map makes iteration (and therefore the first reported
 * mismatch) deterministic.
 */
class RefMemory
{
  public:
    explicit RefMemory(std::uint32_t page_bytes = 4096);

    /** Drop all captured pages. */
    void clear();

    bool empty() const { return images.empty(); }
    std::size_t pageCount() const { return images.size(); }
    std::uint32_t pageBytes() const { return bytesPerPage; }

    /** Record @p bytes as the golden image of @p vpn. */
    void capturePage(Vpn vpn, std::vector<std::uint8_t> bytes);

    /**
     * Capture every page currently mapped in @p space from @p phys.
     * Pages are visited in sorted vpn order.
     */
    void captureFrom(const os::AddressSpace &space,
                     const mem::PhysicalMemory &phys);

    /** The golden image of @p vpn, or nullptr if never captured. */
    const std::vector<std::uint8_t> *page(Vpn vpn) const;

    /** Shadow a store of @p bytes (<= 8) at @p vaddr into the image. */
    void write(Addr vaddr, std::uint64_t value, std::uint32_t bytes);

    /** Read @p bytes (<= 8) at @p vaddr from the image (zero-fill). */
    std::uint64_t read(Addr vaddr, std::uint32_t bytes) const;

    /** First point where a page's actual bytes diverge from golden. */
    struct Mismatch
    {
        Vpn vpn = 0;
        std::uint32_t offset = 0;
        std::uint8_t expect = 0;
        std::uint8_t actual = 0;

        std::string describe() const;
    };

    /**
     * Compare @p actual against the golden image of @p vpn.
     * @return the first mismatching byte, or nullopt on a match (a
     *         never-captured vpn also matches — there is nothing to
     *         hold the actual bytes against).
     */
    std::optional<Mismatch>
    comparePage(Vpn vpn, const std::vector<std::uint8_t> &actual) const;

    /**
     * Compare every captured page still mapped in @p space against
     * @p phys, in sorted vpn order.
     * @return the first mismatch found, or nullopt when all match.
     */
    std::optional<Mismatch>
    compareAgainst(const os::AddressSpace &space,
                   const mem::PhysicalMemory &phys) const;

    /** All captured images, sorted by vpn. */
    const std::map<Vpn, std::vector<std::uint8_t>> &
    pages() const
    {
        return images;
    }

  private:
    std::uint32_t bytesPerPage;
    std::map<Vpn, std::vector<std::uint8_t>> images;
};

/**
 * Reference replay of the trace FIFO's timing contract
 * (mem/trace_fifo.hh). Keeps the complete service-start history — a
 * reference model can afford O(n) memory — and recomputes occupancy
 * by definition: a record occupies a slot from its push until its
 * service starts.
 */
class RefFifo
{
  public:
    explicit RefFifo(std::uint32_t capacity);

    struct PushResult
    {
        Tick pushDone = 0;
        Cycles stall = 0;
        Tick serviceStart = 0;
        Tick serviceEnd = 0;
    };

    PushResult push(Tick tick, Cycles service_cost);

    /** Records whose service has not started by @p tick (<= cap). */
    std::uint32_t occupancyAt(Tick tick) const;

    /** Tick by which everything pushed so far is verified. */
    Tick drainTick() const { return lastEnd; }

    std::uint64_t pushes() const { return starts.size(); }

    /** High-watermark crossings observed (hysteresis applied). */
    std::uint64_t highWaterCrossings() const { return nHigh; }
    /** Low-watermark (drain) crossings observed. */
    std::uint64_t lowWaterCrossings() const { return nLow; }

    void reset();

  private:
    std::uint32_t cap;
    std::uint32_t highWater;
    std::uint32_t lowWater;
    bool aboveHigh = false;
    std::uint64_t nHigh = 0;
    std::uint64_t nLow = 0;
    Tick lastEnd = 0;
    /** serviceStart of every record ever pushed, in push order. */
    std::vector<Tick> starts;
};

/**
 * Reference model of the memory update log's restore contract: per
 * exact store address, the *oldest* pre-store value of the epoch is
 * what a failure replay must leave in memory. Addresses are kept
 * sorted so iteration order is deterministic.
 *
 * The model is exact-address granularity: callers feed it the same
 * (vaddr, bytes) stream the production log sees, and overlapping
 * stores of different widths are outside its contract (the test
 * schedules use aligned same-width stores).
 */
class RefUndoLog
{
  public:
    struct OldValue
    {
        std::uint64_t value = 0;
        std::uint32_t bytes = 0;
    };

    /** Begin a new epoch: forget everything. */
    void beginEpoch() { oldest.clear(); }

    /**
     * A store of @p bytes at @p vaddr is about to happen while memory
     * still holds @p old_value there. Only the first note per address
     * in an epoch sticks — that is the oldest value.
     */
    void noteStore(Addr vaddr, std::uint64_t old_value,
                   std::uint32_t bytes);

    std::size_t entryCount() const { return oldest.size(); }

    /** The oldest recorded value at @p vaddr, if any. */
    const OldValue *find(Addr vaddr) const;

    /** All entries, sorted by address. */
    const std::map<Addr, OldValue> &entries() const { return oldest; }

  private:
    std::map<Addr, OldValue> oldest;
};

/**
 * Reference model of the isolated-domain ownership contract
 * (os/domain_map.hh): instead of an (owner, shared-bit) pair it keeps
 * the complete set of domains that ever wrote each page, so ownership
 * ("the minimum-insertion-order writer" = first writer), sharing
 * ("more than one writer") and the confined rewind set all fall out
 * by definition rather than by bookkeeping.
 */
class RefDomain
{
  public:
    /** Record a write to @p vpn by @p domain. */
    void noteWrite(Vpn vpn, std::uint32_t domain);

    /** True when some domain has written @p vpn. */
    bool claimed(Vpn vpn) const;

    /** First writer of @p vpn; 0 when never written. */
    std::uint32_t ownerOf(Vpn vpn) const;

    /** True when two or more distinct domains wrote @p vpn. */
    bool shared(Vpn vpn) const;

    /**
     * The pages a confined rewind of @p domain may restore: every
     * page it owns that no other domain ever wrote, sorted by vpn.
     */
    std::vector<Vpn> rewindSet(std::uint32_t domain) const;

    /** Forget every write (invalidate / rejuvenation). */
    void clear() { writes.clear(); }

    std::size_t pageCount() const { return writes.size(); }

  private:
    struct PageWriters
    {
        std::uint32_t first = 0;          //!< first writer (owner)
        std::set<std::uint32_t> domains;  //!< every writer ever
    };
    std::map<Vpn, PageWriters> writes;
};

} // namespace indra::check

#endif // INDRA_ORACLE_REF_MODELS_HH
