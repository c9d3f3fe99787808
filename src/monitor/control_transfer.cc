#include "monitor/control_transfer.hh"

namespace indra::mon
{

void
CtrlTransferInspector::registerFunctionEntry(Pid pid, Addr entry)
{
    validTargets[pid].insert(entry);
}

void
CtrlTransferInspector::registerLibraryEntry(Pid pid, Addr entry)
{
    validTargets[pid].insert(entry);
}

void
CtrlTransferInspector::registerDynCodeRegion(Pid pid, Addr base,
                                             std::uint64_t len)
{
    dynRegions[pid].push_back(DynRegion{base, len});
}

void
CtrlTransferInspector::forgetProcess(Pid pid)
{
    validTargets.erase(pid);
    dynRegions.erase(pid);
}

Verdict
CtrlTransferInspector::inspect(const cpu::TraceRecord &rec) const
{
    auto targets = validTargets.find(rec.pid);
    if (targets != validTargets.end() &&
        targets->second.count(rec.target)) {
        return Verdict{};
    }
    auto regions = dynRegions.find(rec.pid);
    if (regions != dynRegions.end()) {
        for (const DynRegion &r : regions->second) {
            if (rec.target >= r.base && rec.target < r.base + r.len)
                return Verdict{};
        }
    }
    return Verdict{Violation::IllegalTransfer};
}

} // namespace indra::mon
