/**
 * @file
 * Code-origin inspection (Section 3.2.2): the resurrector keeps its
 * own registry of which pages of each monitored process may supply
 * instructions to the IL1. The registry is populated at program load
 * (the OS posts the code pages) and when the application explicitly
 * declares a dynamic-code region; it lives on the resurrector and is
 * unreachable from the resurrectees, so exploits cannot forge
 * execute attributes.
 */

#ifndef INDRA_MON_CODE_ORIGIN_HH
#define INDRA_MON_CODE_ORIGIN_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "monitor/inspector.hh"
#include "sim/types.hh"

namespace indra::mon
{

/** Registry + verifier of executable page attributes. */
class CodeOriginInspector
{
  public:
    explicit CodeOriginInspector(std::uint32_t page_bytes);

    /** Post one executable page for @p pid (program load time). */
    void registerCodePage(Pid pid, Addr page_addr);

    /** Post an explicitly declared dynamic-code region. */
    void registerDynCodeRegion(Pid pid, Addr base, std::uint64_t len);

    /** Forget everything known about @p pid (process exit). */
    void forgetProcess(Pid pid);

    /**
     * Verify a CodeOrigin record: the fill's page must be a
     * registered code page or lie inside a declared dynamic region.
     */
    Verdict inspect(const cpu::TraceRecord &rec) const;

  private:
    struct DynRegion
    {
        Addr base;
        std::uint64_t len;
    };

    std::uint32_t pageBytes;
    std::unordered_map<Pid, std::unordered_set<Addr>> codePages;
    std::unordered_map<Pid, std::vector<DynRegion>> dynRegions;
};

} // namespace indra::mon

#endif // INDRA_MON_CODE_ORIGIN_HH
