/**
 * @file
 * Fault-site attribution: mapping campaign outcomes back to the
 * injection that caused them.
 *
 * The injector's append-only site log (faults::FaultSite) gives every
 * fired injection a stable identity — component x kind x per-kind
 * seed-stream position — and the campaign runner snapshots the log
 * length around each request window. A failure at window w is
 * attributed to the *nearest prior* site (the last entry with index
 * < w.sitesEnd), which spans windows: dormant corruption injected
 * epochs before it surfaces still points at the injection that
 * planted it, in the CFA per-component root-cause style.
 */

#ifndef INDRA_RCA_ATTRIBUTION_HH
#define INDRA_RCA_ATTRIBUTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_injector.hh"
#include "net/request.hh"
#include "sim/types.hh"

namespace indra::rca
{

/**
 * One request window of a campaign run (the faulted run or its golden
 * twin): the outcome plus the slice of the injector's site log that
 * fired inside it.
 */
struct WindowRecord
{
    std::uint64_t seq = 0; //!< execution-order request number
    net::AttackKind attack = net::AttackKind::None;
    net::RequestStatus status = net::RequestStatus::Served;
    mon::Violation violation = mon::Violation::None;
    Tick startTick = 0;
    Tick endTick = 0;
    /** Failure-verdict tick (0 = the window never failed in-band). */
    Tick failTick = 0;
    /** Site-log length at window begin / end: sites with index in
     *  [sitesBegin, sitesEnd) fired inside this window. */
    std::size_t sitesBegin = 0;
    std::size_t sitesEnd = 0;
    /** Backup checksum corruption detections during this window. */
    std::uint64_t corruptionDelta = 0;
};

/** One campaign outcome the fault turned into a failure. */
struct Failure
{
    /** Window where the fault became a failure (divergence point). */
    std::uint64_t seq = 0;
    net::AttackKind attack = net::AttackKind::None;

    // ----------------------------------------------- attributed site
    bool hasSite = false; //!< false when no injection ever fired
    std::size_t siteIndex = 0; //!< global FaultSiteId
    faults::FaultKind kind = faults::FaultKind::TraceDrop;
    faults::FaultComponent component =
        faults::FaultComponent::TraceTransport;
    Tick siteTick = 0;
    std::uint64_t siteStreamPos = 0;

    // ------------------------------------------------- detector view
    /** The faulted system's own in-band machinery noticed: a monitor
     *  or crash verdict fired (failTick) or a backup checksum caught
     *  corruption during the diverging window. */
    bool detectedByMonitor = false;
    /** The replay detector sees every divergence by construction. */
    bool detectedByReplay = true;
    /** Found only by the final-state memory audit: every window
     *  looked clean, but the faulted memory image diverged. */
    bool silent = false;
    /** Escaped the in-band detectors entirely. */
    bool escaped = false;

    /** In-band detection latency: failTick - window start (0 when
     *  the monitor never fired). */
    Cycles monitorLatency = 0;
    /** Replay detection latency: cycles to re-execute the suspect
     *  window on the golden twin up to the divergence. */
    Cycles replayLatency = 0;
};

/**
 * The nearest prior site for a failure whose window ends at site-log
 * position @p sites_end, or nullptr when nothing fired yet.
 */
const faults::FaultSite *
attributeSite(const std::vector<faults::FaultSite> &sites,
              std::size_t sites_end);

/** "monitor-verdict/monitor-miss#3@120000 (site 7)". */
std::string formatSiteId(const faults::FaultSite &site,
                         std::size_t index);

} // namespace indra::rca

#endif // INDRA_RCA_ATTRIBUTION_HH
