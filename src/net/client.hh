/**
 * @file
 * Client-side drivers: the equivalents of the paper's test scripts
 * (wget loops, ftp up/downloads, imap polls, DNS query streams) plus
 * attack traffic mixed in, and an availability aggregator.
 */

#ifndef INDRA_NET_CLIENT_HH
#define INDRA_NET_CLIENT_HH

#include <cstdint>
#include <vector>

#include "net/request.hh"
#include "sim/random.hh"

namespace indra::net
{

/** Request-sequence factories. */
class ClientScript
{
  public:
    /** @p n benign requests. */
    static std::vector<ServiceRequest> benign(std::uint64_t n);

    /**
     * @p n requests with attack @p kind on every @p attack_period th
     * request (1-based: request seq k attacks when k % period == 0).
     */
    static std::vector<ServiceRequest> periodicAttack(
        std::uint64_t n, AttackKind kind, std::uint64_t attack_period);

    /**
     * @p n requests, each malicious with probability @p attack_prob,
     * attack kinds drawn uniformly from @p kinds.
     */
    static std::vector<ServiceRequest> randomMix(
        std::uint64_t n, double attack_prob,
        const std::vector<AttackKind> &kinds, std::uint64_t seed);

  private:
    static std::vector<ServiceRequest> numbered(std::uint64_t n);
};

/** Aggregate availability / latency over a run. */
struct AvailabilityReport
{
    std::uint64_t total = 0;
    std::uint64_t served = 0;
    std::uint64_t recovered = 0;
    std::uint64_t macroRecovered = 0;
    std::uint64_t rejuvenated = 0;
    /**
     * Requests a confined domain rewind discarded while the other
     * domains kept serving; they count as answered.
     */
    std::uint64_t domainRewound = 0;
    std::uint64_t lost = 0;
    /** Requests refused by admission control (never executed). */
    std::uint64_t shed = 0;
    double meanBenignResponse = 0;
    double maxBenignResponse = 0;

    /**
     * Fraction of *serviced* requests that got an answer. Shed
     * requests never entered service and are excluded; the goodput
     * metrics of the resilience layer account for them instead.
     */
    double availability() const;

    /** Build from a run's outcomes. */
    static AvailabilityReport build(
        const std::vector<RequestOutcome> &outcomes);
};

} // namespace indra::net

#endif // INDRA_NET_CLIENT_HH
