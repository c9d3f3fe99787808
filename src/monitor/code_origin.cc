#include "monitor/code_origin.hh"

#include "sim/logging.hh"

namespace indra::mon
{

CodeOriginInspector::CodeOriginInspector(std::uint32_t page_bytes)
    : pageBytes(page_bytes)
{
    panic_if(!isPowerOf2(page_bytes), "bad page size");
}

void
CodeOriginInspector::registerCodePage(Pid pid, Addr page_addr)
{
    codePages[pid].insert(alignDown(page_addr, pageBytes));
}

void
CodeOriginInspector::registerDynCodeRegion(Pid pid, Addr base,
                                           std::uint64_t len)
{
    dynRegions[pid].push_back(DynRegion{base, len});
}

void
CodeOriginInspector::forgetProcess(Pid pid)
{
    codePages.erase(pid);
    dynRegions.erase(pid);
}

Verdict
CodeOriginInspector::inspect(const cpu::TraceRecord &rec) const
{
    Addr page = alignDown(rec.target, pageBytes);

    auto pages = codePages.find(rec.pid);
    if (pages != codePages.end() && pages->second.count(page))
        return Verdict{};

    auto regions = dynRegions.find(rec.pid);
    if (regions != dynRegions.end()) {
        for (const DynRegion &r : regions->second) {
            if (rec.pc >= r.base && rec.pc < r.base + r.len)
                return Verdict{};
        }
    }
    return Verdict{Violation::InjectedCode};
}

} // namespace indra::mon
