/**
 * @file
 * Physical memory: a sparse frame store with a frame allocator.
 *
 * Functional state lives here — every byte a resurrectee writes is
 * really stored, which lets the checkpoint engines be verified for
 * *correctness* (does rollback restore the exact bytes?), not just for
 * timing.
 */

#ifndef INDRA_MEM_PHYS_MEM_HH
#define INDRA_MEM_PHYS_MEM_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace indra::mem
{

/**
 * Sparse physical memory. Frames are allocated from a bump-plus-free-
 * list allocator; frame contents are materialized lazily (all-zero
 * until first written). The per-frame tables are vectors indexed by
 * pfn that grow with the highest frame touched (normally the
 * allocator's high-water mark), not with the capacity.
 *
 * Zero frames: a frame has no backing store from its allocation (or
 * free, or zeroFrame()) until its first write, and while it has none
 * it reads as zeros and isZeroFrame() holds. The converse is not
 * promised — a written frame whose bytes happen to be zero keeps its
 * store — so isZeroFrame() is an exact "never written since it was
 * allocated, freed or zeroed", which lets the checkpoint engines skip
 * copying, hashing and storing a page they know to be zero. A
 * whole-frame copy() from such a frame makes the destination one too.
 */
class PhysicalMemory
{
  public:
    /** @param size_bytes capacity; @param page_bytes frame size. */
    PhysicalMemory(std::uint64_t size_bytes, std::uint32_t page_bytes);

    /** Frame size in bytes. */
    std::uint32_t pageBytes() const { return frameBytes; }

    /** Number of frames currently allocated. */
    std::uint64_t framesAllocated() const { return allocated; }

    /**
     * Allocate one frame.
     * @return the new frame number.
     * Calls fatal() when physical memory is exhausted.
     */
    Pfn allocFrame();

    /** Return @p pfn to the allocator. Contents are discarded. */
    void freeFrame(Pfn pfn);

    /** True if @p pfn is currently allocated. */
    bool isAllocated(Pfn pfn) const;

    /** Read @p len bytes at (@p pfn, @p offset) into @p out. */
    void
    read(Pfn pfn, std::uint32_t offset, void *out, std::uint32_t len) const
    {
        checkFrame(pfn);
        panic_if(offset + len > frameBytes, "read crosses frame boundary");
        const std::uint8_t *data = peek(pfn);
        if (!data) {
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, data + offset, len);
    }

    /** Write @p len bytes from @p in at (@p pfn, @p offset). */
    void
    write(Pfn pfn, std::uint32_t offset, const void *in, std::uint32_t len)
    {
        checkFrame(pfn);
        panic_if(offset + len > frameBytes, "write crosses frame boundary");
        std::memcpy(materialize(pfn) + offset, in, len);
        ++versions[pfn];
    }

    /** Convenience: read one 64-bit word. */
    std::uint64_t
    read64(Pfn pfn, std::uint32_t offset) const
    {
        std::uint64_t v;
        read(pfn, offset, &v, sizeof(v));
        return v;
    }

    /**
     * Write one 64-bit word: write() with the length fixed, so the copy
     * is one move rather than a call into a runtime-length memcpy.
     */
    void
    write64(Pfn pfn, std::uint32_t offset, std::uint64_t value)
    {
        checkFrame(pfn);
        panic_if(offset + sizeof(value) > frameBytes,
                 "write crosses frame boundary");
        std::memcpy(materialize(pfn) + offset, &value, sizeof(value));
        ++versions[pfn];
    }

    /**
     * Copy @p len bytes from (@p src_pfn, @p src_off) to
     * (@p dst_pfn, @p dst_off). Used by checkpoint engines. A
     * whole-frame copy from a zero frame zeroes the destination with
     * zeroFrame(); a partial one writes the zeros.
     */
    void copy(Pfn dst_pfn, std::uint32_t dst_off, Pfn src_pfn,
              std::uint32_t src_off, std::uint32_t len);

    /**
     * True exactly when @p pfn has no backing store: it was not
     * written since it was allocated, freed or zeroed, and reads as
     * zeros.
     */
    bool
    isZeroFrame(Pfn pfn) const
    {
        checkFrame(pfn);
        return peek(pfn) == nullptr;
    }

    /**
     * Make @p pfn all zeros by dropping its backing store. Like a
     * write, this bumps the frame's version.
     */
    void
    zeroFrame(Pfn pfn)
    {
        checkFrame(pfn);
        cover(pfn);
        frames[pfn] = std::vector<std::uint8_t>();
        ++versions[pfn];
    }

    /**
     * Snapshot an entire frame's bytes into a new buffer: the
     * load-time image copies a written page with it, and the
     * differential oracle's reference models and the tests compare
     * frames through it.
     */
    std::vector<std::uint8_t> snapshotFrame(Pfn pfn) const;

    /**
     * Snapshot an entire frame into @p out, reusing its capacity.
     * Checkpoint engines that recapture the same pages every interval
     * use this to avoid reallocating a page-sized buffer per page per
     * capture.
     */
    void snapshotFrameInto(Pfn pfn, std::vector<std::uint8_t> &out) const;

    /**
     * Monotone per-frame write version: bumped on every write to the
     * frame and when the frame is freed (its contents are discarded).
     * Two observations of the same (pfn, version) pair are guaranteed
     * to have seen identical frame contents, which lets checkpoint
     * engines memoize whole-page checksums across captures.
     */
    std::uint64_t
    frameVersion(Pfn pfn) const
    {
        return pfn < versions.size() ? versions[pfn] : 0;
    }

  private:
    /** Grow the per-frame tables to cover @p pfn. */
    void
    cover(Pfn pfn)
    {
        if (pfn >= versions.size()) {
            frames.resize(pfn + 1);
            live.resize(pfn + 1, 0);
            versions.resize(pfn + 1, 0);
        }
    }

    /** Backing store for a frame, created on first write. */
    std::uint8_t *
    materialize(Pfn pfn)
    {
        cover(pfn);
        std::vector<std::uint8_t> &data = frames[pfn];
        if (data.empty())
            data.assign(frameBytes, 0);
        return data.data();
    }

    /** A frame's bytes, or nullptr while it is all-zero and lazy. */
    const std::uint8_t *
    peek(Pfn pfn) const
    {
        if (pfn >= frames.size() || frames[pfn].empty())
            return nullptr;
        return frames[pfn].data();
    }

    void
    checkFrame(Pfn pfn) const
    {
        panic_if(pfn >= frameCount, "frame ", pfn, " out of range");
    }

    std::uint32_t frameBytes;
    std::uint64_t frameCount;
    std::uint64_t nextFresh = 0;
    std::uint64_t allocated = 0;
    std::vector<Pfn> freeList;
    /** Per-pfn tables; a frame's bytes are empty until materialized. */
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> live;
    std::vector<std::uint64_t> versions;
};

} // namespace indra::mem

#endif // INDRA_MEM_PHYS_MEM_HH
