/**
 * @file
 * Per-process virtual address space: page tables, region attributes
 * (code / data / heap / stack / declared dynamic code), and frame
 * allocation with watchdog grants for the owning resurrectee core.
 *
 * The executable attribute recorded here is what the application/OS
 * "posts" to the resurrector at load time for code-origin inspection
 * (Section 3.2.2).
 */

#ifndef INDRA_OS_ADDRESS_SPACE_HH
#define INDRA_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "mem/watchdog.hh"
#include "sim/memo.hh"
#include "sim/types.hh"

namespace indra::os
{

/** Classes of virtual page. */
enum class Region : std::uint8_t
{
    Code,     //!< loaded program text: executable, read-only
    Data,     //!< static data: writable, never executable
    Heap,     //!< dynamically allocated: writable, never executable
    Stack,    //!< stack: writable, never executable
    DynCode,  //!< explicitly declared dynamic/self-modifying code
};

/** Attributes of one mapped page. */
struct PageInfo
{
    Pfn pfn = invalidPfn;
    Region region = Region::Data;
    bool executable = false;
};

/** Canonical layout bases for generated service programs. */
namespace layout
{
constexpr Addr codeBase = 0x00400000;
constexpr Addr dataBase = 0x10000000;
constexpr Addr heapBase = 0x20000000;
constexpr Addr dynCodeBase = 0x30000000;
constexpr Addr stackTop = 0x7fff0000;
} // namespace layout

/**
 * One process's address space. Implements mem::Translator so the
 * memory hierarchy can translate and the watchdog can be enforced.
 */
class AddressSpace final : public mem::Translator
{
  public:
    /**
     * @param pid        owning process
     * @param phys       frame source
     * @param page_bytes page size
     * @param watchdog   grant table (nullptr in symmetric mode)
     * @param owner_core resurrectee core granted access to new frames
     */
    AddressSpace(Pid pid, mem::PhysicalMemory &phys,
                 std::uint32_t page_bytes, mem::MemWatchdog *watchdog,
                 CoreId owner_core);

    ~AddressSpace() override;

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    // mem::Translator
    Pfn
    translate(Pid pid, Vpn vpn) const override
    {
        if (pid != _pid)
            return invalidPfn;
        const PageInfo *info = findPage(vpn);
        return info ? info->pfn : invalidPfn;
    }

    /** Map @p num_pages fresh pages starting at @p base. */
    void mapRegion(Addr base, std::uint64_t num_pages, Region region);

    /** Map one fresh page at @p vpn. @return the new frame. */
    Pfn mapPage(Vpn vpn, Region region);

    /**
     * Unmap and free the page at @p vpn.
     * @return false (a no-op) when @p vpn was not mapped — reclaiming
     * a page twice during a faulty revival is survivable, not fatal.
     */
    bool unmapPage(Vpn vpn);

    /**
     * Point @p vpn at @p new_pfn, freeing the old frame. Used by the
     * page-remap recovery schemes ("fast, modify page translation" in
     * Table 3). The new frame inherits the page's watchdog grants.
     * @return the old frame number (now freed).
     */
    Pfn remapPage(Vpn vpn, Pfn new_pfn);

    /**
     * Attributes of the page holding @p vpn, or nullptr when @p vpn is
     * not mapped. The pointer stays valid until the page is unmapped;
     * a remap updates its pfn in place.
     */
    const PageInfo *
    findPage(Vpn vpn) const
    {
        if (const PageInfo *hit = memo.find(vpn))
            return hit;
        auto it = table.find(vpn);
        if (it == table.end())
            return nullptr;
        memo.fill(vpn, &it->second);
        return &it->second;
    }

    /** True if @p vpn is mapped. */
    bool isMapped(Vpn vpn) const { return findPage(vpn) != nullptr; }

    /** Attributes of the page holding @p vpn (must be mapped). */
    const PageInfo &pageInfo(Vpn vpn) const;

    /** All mapped vpns (unordered). */
    std::vector<Vpn> mappedPages() const;

    /** Number of mapped pages. */
    std::uint64_t pageCount() const { return table.size(); }

    Pid pid() const { return _pid; }
    std::uint32_t pageBytes() const { return pageSize; }

    /** Translate a byte address; invalidAddr-safe helpers. */
    Vpn vpnOf(Addr vaddr) const { return vaddr / pageSize; }

  private:
    Pid _pid;
    mem::PhysicalMemory &phys;
    std::uint32_t pageSize;
    mem::MemWatchdog *watchdog;
    CoreId ownerCore;
    std::unordered_map<Vpn, PageInfo> table;
    /**
     * Memo of recent table hits, in front of table on every lookup
     * (the software stand-in for the TLB's cached translation). Only
     * unmapPage, which erases a node, drops a key.
     */
    mutable PointerMemo<const PageInfo> memo;
};

} // namespace indra::os

#endif // INDRA_OS_ADDRESS_SPACE_HH
