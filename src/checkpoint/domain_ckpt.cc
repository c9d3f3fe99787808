#include "checkpoint/domain_ckpt.hh"

namespace indra::ckpt
{

DomainRewindEngine::DomainRewindEngine(const SystemConfig &cfg,
                                       os::ProcessContext &context,
                                       os::AddressSpace &space,
                                       mem::PhysicalMemory &phys,
                                       mem::MemHierarchy &mem,
                                       stats::StatGroup &parent)
    : DeltaBackup(cfg, context, space, phys, mem, parent,
                  "ckpt_domain"),
      statDomainRewinds(statGroup, "domain_rewinds",
                        "confined domain rewinds performed"),
      statPagesRewound(statGroup, "domain_pages_rewound",
                       "pages restored from their anchor copy"),
      statAnchorPagesAllocated(statGroup, "domain_anchor_pages",
                               "anchor pages captured at first write"),
      statSharedPages(statGroup, "domain_shared_pages",
                      "pages marked shared by a cross-domain write")
{
    domains.configure(cfg.domainCount);
    lastRewound.reserve(64);
}

DomainRewindEngine::~DomainRewindEngine()
{
    for (auto &[vpn, pfn] : anchors)
        phys.freeFrame(pfn);
}

Cycles
DomainRewindEngine::onStore(Tick tick, Pid pid, Addr vaddr,
                            std::uint32_t bytes)
{
    Cycles cost = DeltaBackup::onStore(tick, pid, vaddr, bytes);
    if (pid != context.pid())
        return cost;
    Vpn vpn = geom.vpnOf(vaddr);
    const os::PageInfo *page = space.findPage(vpn);
    if (!page)
        return cost;

    // First write to this page since the last invalidate: capture its
    // pristine content as the domain anchor before the store lands.
    // The store hooks run ahead of the architectural write, so the
    // page still holds its compartment-entry bytes here.
    auto it = anchors.find(vpn);
    if (it == anchors.end()) {
        Pfn cur = page->pfn;
        Pfn anchor = phys.allocFrame();
        copyPage(anchor, cur);
        anchors.emplace(vpn, anchor);
        ++statAnchorPagesAllocated;
        cost += chargePageCopy(tick + cost, cur, anchor);
    }
    if (domains.claim(vpn, activeDom))
        ++statSharedPages;
    return cost;
}

void
DomainRewindEngine::invalidate()
{
    DeltaBackup::invalidate();
    for (auto &[vpn, pfn] : anchors)
        phys.freeFrame(pfn);
    anchors.clear();
    domains.clear();
    lastRewound.clear();
    lastRewoundDom = net::domainUnassigned;
    clearAttribution();
}

Cycles
DomainRewindEngine::rewindAttributed(Tick tick)
{
    Cycles cost = config.domainRewindSetupCycles;
    lastRewound.clear();
    lastRewoundDom = attributed;
    for (const auto &[vpn, anchor] : anchors) {
        if (domains.ownerOf(vpn) != attributed || domains.isShared(vpn))
            continue;
        if (!space.isMapped(vpn))
            continue;
        Pfn cur = space.pageInfo(vpn).pfn;
        copyPage(cur, anchor);
        cost += chargePageCopy(tick + cost, anchor, cur);
        lastRewound.push_back(vpn);
    }
    ++statDomainRewinds;
    statPagesRewound += static_cast<double>(lastRewound.size());
    statRecoveryCycles += static_cast<double>(cost);
    INDRA_TRACE(traceLog, tick, obs::EventKind::DomainRewind,
                traceSource, attributed, lastRewound.size());
    clearAttribution();
    return cost;
}

} // namespace indra::ckpt
