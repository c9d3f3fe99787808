/**
 * @file
 * Isolated-domain rewind engine (CheckpointScheme::DomainRewind).
 *
 * The fourth recovery scheme: the resurrectee's address space is
 * partitioned into isolated domains ("Unlimited Lives" / Morello
 * secure-rewind-and-discard style in-process compartments). Each
 * request executes inside one domain; the first domain to write a
 * page claims it (os::DomainMap), and the engine captures a full-page
 * *anchor* copy at that first write — the page's pristine content at
 * compartment-entry time. On a monitor verdict only the attributed
 * domain is rewound: after the ordinary per-request rollback is
 * drained, every non-shared page owned by that domain is restored
 * from its anchor while every other domain's committed state is left
 * untouched. Pages written by more than one domain sit on the
 * compartment boundary and are never rewound behind the other
 * domains' backs — the request-exact delta rollback already covered
 * them — and a verdict whose exploit class can cross compartments
 * escalates to the macro/rejuvenation ladder instead.
 *
 * Request-exact rollback, backup-line checksums, and integrity
 * verification are inherited unchanged from DeltaBackup; this engine
 * adds only the domain bookkeeping and the confined rewind.
 */

#ifndef INDRA_CKPT_DOMAIN_CKPT_HH
#define INDRA_CKPT_DOMAIN_CKPT_HH

#include <cstdint>
#include <map>
#include <vector>

#include "checkpoint/delta_backup.hh"
#include "net/request.hh"
#include "os/domain_map.hh"

namespace indra::ckpt
{

/**
 * Delta backup plus per-domain anchors and confined rewind.
 */
class DomainRewindEngine : public DeltaBackup
{
  public:
    DomainRewindEngine(const SystemConfig &cfg,
                       os::ProcessContext &context,
                       os::AddressSpace &space,
                       mem::PhysicalMemory &phys, mem::MemHierarchy &mem,
                       stats::StatGroup &parent);

    ~DomainRewindEngine() override;

    const char *name() const override { return "domain-rewind"; }

    /** Anchor capture + domain claim ride on the delta write path. */
    Cycles onStore(Tick tick, Pid pid, Addr vaddr,
                   std::uint32_t bytes) override;

    /** Anchors and domain claims are dropped with the delta state. */
    void invalidate() override;

    // ------------------------------------------------ domain routing
    /** Domain executing the current request. */
    void setActiveDomain(std::uint32_t d) { activeDom = d; }
    std::uint32_t activeDomain() const { return activeDom; }

    /** Number of configured domains. */
    std::uint32_t domainCount() const { return domains.domainCount(); }

    /** First-writer owner of @p vpn (0 when unclaimed). */
    std::uint32_t ownerOf(Vpn vpn) const { return domains.ownerOf(vpn); }

    /** True when @p vpn was written by more than one domain. */
    bool pageShared(Vpn vpn) const { return domains.isShared(vpn); }

    /** The live ownership map (conformance tests vs RefDomain). */
    const os::DomainMap &map() const { return domains; }

    // -------------------------------------------------- attribution
    /**
     * The monitor attributed the current failure to @p domain;
     * @p cross flags an exploit class able to reach past the
     * compartment boundary (escalate instead of rewinding).
     */
    void
    attributeFailure(std::uint32_t domain, bool cross)
    {
        attributed = domain;
        attrPending = true;
        attrCross = cross;
    }

    bool attributionPending() const { return attrPending; }
    bool attributedCross() const { return attrCross; }

    void
    clearAttribution()
    {
        attrPending = false;
        attrCross = false;
        attributed = net::domainUnassigned;
    }

    // ------------------------------------------------------- rewind
    /**
     * Rewind the attributed domain: restore every non-shared page it
     * owns from that page's anchor copy. The caller must drain the
     * per-request rollback first (a lazily pending line applied later
     * would clobber the anchor content). Clears the attribution.
     * @return cycles charged for the confined rewind
     */
    Cycles rewindAttributed(Tick tick);

    /** Pages restored by the most recent rewind (sorted by vpn). */
    const std::vector<Vpn> &lastRewoundPages() const
    {
        return lastRewound;
    }

    /** Domain the most recent rewind restored. */
    std::uint32_t lastRewoundDomain() const { return lastRewoundDom; }

    // -------------------------------------------------------- stats
    std::uint64_t rewinds() const
    {
        return static_cast<std::uint64_t>(statDomainRewinds.value());
    }

  private:
    os::DomainMap domains;
    /** vpn -> anchor frame, sorted so rewinds walk pages in vpn
     *  order (deterministic across runs and --jobs counts). */
    std::map<Vpn, Pfn> anchors;
    std::uint32_t activeDom = 0;

    std::uint32_t attributed = net::domainUnassigned;
    bool attrPending = false;
    bool attrCross = false;

    /** Reused across rewinds: no allocation on the rewind hot path. */
    std::vector<Vpn> lastRewound;
    std::uint32_t lastRewoundDom = net::domainUnassigned;

    stats::Scalar statDomainRewinds;
    stats::Scalar statPagesRewound;
    stats::Scalar statAnchorPagesAllocated;
    stats::Scalar statSharedPages;
};

} // namespace indra::ckpt

#endif // INDRA_CKPT_DOMAIN_CKPT_HH
