/**
 * @file
 * Control-transfer inspection (Section 3.2.3): the resurrector holds
 * the application's symbol table and the shared libraries'
 * export/import lists, posted when the service program starts. Every
 * computed transfer or indirect call must land on a sanctioned target
 * — a defined function entry, a library entry point, or a declared
 * dynamic-code region.
 */

#ifndef INDRA_MON_CONTROL_TRANSFER_HH
#define INDRA_MON_CONTROL_TRANSFER_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "monitor/inspector.hh"
#include "sim/types.hh"

namespace indra::mon
{

/** Valid-target verifier for computed transfers. */
class CtrlTransferInspector
{
  public:
    CtrlTransferInspector() = default;

    /** Post a function entry from the application's symbol table. */
    void registerFunctionEntry(Pid pid, Addr entry);

    /** Post a shared-library export/import entry point. */
    void registerLibraryEntry(Pid pid, Addr entry);

    /** Post a declared dynamic-code region (targets inside are ok). */
    void registerDynCodeRegion(Pid pid, Addr base, std::uint64_t len);

    /** Forget everything about @p pid. */
    void forgetProcess(Pid pid);

    /** Verify a CtrlTransfer record. */
    Verdict inspect(const cpu::TraceRecord &rec) const;

  private:
    struct DynRegion
    {
        Addr base;
        std::uint64_t len;
    };

    std::unordered_map<Pid, std::unordered_set<Addr>> validTargets;
    std::unordered_map<Pid, std::vector<DynRegion>> dynRegions;
};

} // namespace indra::mon

#endif // INDRA_MON_CONTROL_TRANSFER_HH
