#include "net/client.hh"

namespace indra::net
{

std::vector<ServiceRequest>
ClientScript::numbered(std::uint64_t n)
{
    std::vector<ServiceRequest> reqs(n);
    for (std::uint64_t i = 0; i < n; ++i)
        reqs[i].seq = i + 1;
    return reqs;
}

std::vector<ServiceRequest>
ClientScript::benign(std::uint64_t n)
{
    return numbered(n);
}

std::vector<ServiceRequest>
ClientScript::periodicAttack(std::uint64_t n, AttackKind kind,
                             std::uint64_t attack_period)
{
    auto reqs = numbered(n);
    if (attack_period == 0)
        return reqs;
    for (auto &r : reqs) {
        if (r.seq % attack_period == 0)
            r.attack = kind;
    }
    return reqs;
}

std::vector<ServiceRequest>
ClientScript::randomMix(std::uint64_t n, double attack_prob,
                        const std::vector<AttackKind> &kinds,
                        std::uint64_t seed)
{
    auto reqs = numbered(n);
    Pcg32 rng(seed, 0x11ee22dd33cc44bbULL);
    for (auto &r : reqs) {
        if (!kinds.empty() && rng.bernoulli(attack_prob)) {
            r.attack = kinds[rng.nextBounded(
                static_cast<std::uint32_t>(kinds.size()))];
        }
    }
    return reqs;
}

double
AvailabilityReport::availability() const
{
    std::uint64_t answered =
        served + recovered + macroRecovered + rejuvenated + domainRewound;
    std::uint64_t asked = answered + lost;
    return asked ? static_cast<double>(answered) / asked : 1.0;
}

AvailabilityReport
AvailabilityReport::build(const std::vector<RequestOutcome> &outcomes)
{
    AvailabilityReport rep;
    double sum = 0;
    std::uint64_t benign_served = 0;
    for (const RequestOutcome &o : outcomes) {
        ++rep.total;
        switch (o.status) {
          case RequestStatus::Served:
            ++rep.served;
            break;
          case RequestStatus::DetectedRecovered:
          case RequestStatus::CrashedRecovered:
            ++rep.recovered;
            break;
          case RequestStatus::MacroRecovered:
            ++rep.macroRecovered;
            break;
          case RequestStatus::Rejuvenated:
            ++rep.rejuvenated;
            break;
          case RequestStatus::DomainRewound:
            ++rep.domainRewound;
            break;
          case RequestStatus::Lost:
            ++rep.lost;
            break;
          case RequestStatus::Shed:
            ++rep.shed;
            break;
        }
        if (o.attack == AttackKind::None &&
            o.status == RequestStatus::Served) {
            ++benign_served;
            double rt = static_cast<double>(o.responseTime());
            sum += rt;
            if (rt > rep.maxBenignResponse)
                rep.maxBenignResponse = rt;
        }
    }
    if (benign_served)
        rep.meanBenignResponse = sum / benign_served;
    return rep;
}

} // namespace indra::net
