#include "net/request.hh"

#include <array>

#include "sim/parse.hh"

namespace indra::net
{

AttackKind
attackKindFromName(const std::string &name, const std::string &key)
{
    static constexpr std::array<AttackKind, 7> all = {
        AttackKind::None,          AttackKind::StackSmash,
        AttackKind::CodeInjection, AttackKind::FuncPtrHijack,
        AttackKind::FormatString,  AttackKind::DosFlood,
        AttackKind::Dormant,
    };
    return parseEnum("setting '" + key + "'", "attack kind", name, all,
                     attackKindName);
}

const char *
attackKindName(AttackKind k)
{
    switch (k) {
      case AttackKind::None:
        return "benign";
      case AttackKind::StackSmash:
        return "stack-smash";
      case AttackKind::CodeInjection:
        return "code-injection";
      case AttackKind::FuncPtrHijack:
        return "func-ptr-hijack";
      case AttackKind::FormatString:
        return "format-string";
      case AttackKind::DosFlood:
        return "dos-flood";
      case AttackKind::Dormant:
        return "dormant";
    }
    return "??";
}

mon::Violation
expectedViolation(AttackKind k)
{
    switch (k) {
      case AttackKind::StackSmash:
        return mon::Violation::StackSmash;
      case AttackKind::CodeInjection:
      case AttackKind::FuncPtrHijack:
      case AttackKind::FormatString:
        return mon::Violation::IllegalTransfer;
      default:
        return mon::Violation::None;
    }
}

const char *
requestStatusName(RequestStatus s)
{
    switch (s) {
      case RequestStatus::Served:
        return "served";
      case RequestStatus::DetectedRecovered:
        return "detected+recovered";
      case RequestStatus::CrashedRecovered:
        return "crashed+recovered";
      case RequestStatus::MacroRecovered:
        return "macro-recovered";
      case RequestStatus::Rejuvenated:
        return "rejuvenated";
      case RequestStatus::Lost:
        return "lost";
      case RequestStatus::Shed:
        return "shed";
      case RequestStatus::DomainRewound:
        return "domain-rewound";
    }
    return "??";
}

const char *
clientClassName(ClientClass c)
{
    switch (c) {
      case ClientClass::Standard:
        return "standard";
      case ClientClass::Bulk:
        return "bulk";
      case ClientClass::Probe:
        return "probe";
    }
    return "??";
}

const char *
shedReasonName(ShedReason r)
{
    switch (r) {
      case ShedReason::None:
        return "none";
      case ShedReason::QueueFull:
        return "queue-full";
      case ShedReason::Deadline:
        return "deadline";
      case ShedReason::RateLimited:
        return "rate-limited";
      case ShedReason::Quarantined:
        return "quarantined";
      case ShedReason::Backpressure:
        return "backpressure";
      case ShedReason::DomainDegraded:
        return "domain-degraded";
    }
    return "??";
}

} // namespace indra::net
