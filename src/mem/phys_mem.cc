#include "mem/phys_mem.hh"

#include <cstring>

#include "sim/logging.hh"

namespace indra::mem
{

PhysicalMemory::PhysicalMemory(std::uint64_t size_bytes,
                               std::uint32_t page_bytes)
    : frameBytes(page_bytes), frameCount(size_bytes / page_bytes)
{
    panic_if(!isPowerOf2(page_bytes), "frame size must be a power of 2");
    fatal_if(frameCount == 0, "physical memory smaller than one frame");
}

Pfn
PhysicalMemory::allocFrame()
{
    Pfn pfn;
    if (!freeList.empty()) {
        pfn = freeList.back();
        freeList.pop_back();
    } else {
        fatal_if(nextFresh >= frameCount,
                 "out of physical memory (", frameCount, " frames)");
        pfn = nextFresh++;
    }
    cover(pfn);
    live[pfn] = 1;
    ++allocated;
    return pfn;
}

void
PhysicalMemory::freeFrame(Pfn pfn)
{
    checkFrame(pfn);
    panic_if(!isAllocated(pfn), "freeing unallocated frame ", pfn);
    live[pfn] = 0;
    // Contents are discarded: a later reuse of this pfn starts from
    // zeros, so the version must move on even though nothing was
    // written through write().
    zeroFrame(pfn);
    freeList.push_back(pfn);
    --allocated;
}

bool
PhysicalMemory::isAllocated(Pfn pfn) const
{
    return pfn < live.size() && live[pfn];
}

void
PhysicalMemory::copy(Pfn dst_pfn, std::uint32_t dst_off, Pfn src_pfn,
                     std::uint32_t src_off, std::uint32_t len)
{
    checkFrame(dst_pfn);
    checkFrame(src_pfn);
    panic_if(src_off + len > frameBytes || dst_off + len > frameBytes,
             "copy crosses frame boundary");
    if (len == frameBytes && !peek(src_pfn)) {
        // A whole all-zero lazy frame: the destination becomes one.
        zeroFrame(dst_pfn);
        return;
    }
    // Materializing the destination may grow the frame table, so the
    // source is looked up after it. memmove keeps a self-copy within
    // one frame safe.
    std::uint8_t *dst = materialize(dst_pfn) + dst_off;
    const std::uint8_t *src = peek(src_pfn);
    if (src)
        std::memmove(dst, src + src_off, len);
    else
        std::memset(dst, 0, len);  // source is an all-zero lazy frame
    ++versions[dst_pfn];
}

std::vector<std::uint8_t>
PhysicalMemory::snapshotFrame(Pfn pfn) const
{
    checkFrame(pfn);
    const std::uint8_t *data = peek(pfn);
    if (!data)
        return std::vector<std::uint8_t>(frameBytes, 0);
    return std::vector<std::uint8_t>(data, data + frameBytes);
}

void
PhysicalMemory::snapshotFrameInto(Pfn pfn,
                                  std::vector<std::uint8_t> &out) const
{
    checkFrame(pfn);
    const std::uint8_t *data = peek(pfn);
    if (!data) {
        out.assign(frameBytes, 0);
        return;
    }
    out.assign(data, data + frameBytes);
}

} // namespace indra::mem
