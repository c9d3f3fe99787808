#include "faults/fault_plan.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace indra::faults
{

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::TraceDrop:
        return "trace-drop";
      case FaultKind::TraceCorrupt:
        return "trace-corrupt";
      case FaultKind::MonitorFalseNegative:
        return "monitor-miss";
      case FaultKind::MonitorDelay:
        return "monitor-delay";
      case FaultKind::DeltaFlip:
        return "delta-flip";
      case FaultKind::LogFlip:
        return "log-flip";
      case FaultKind::MacroCorrupt:
        return "macro-corrupt";
      case FaultKind::MacroTruncate:
        return "macro-truncate";
      case FaultKind::ReleaseFail:
        return "release-fail";
    }
    return "??";
}

const std::array<FaultKind, faultKindCount> &
allFaultKinds()
{
    static const std::array<FaultKind, faultKindCount> kinds = {
        FaultKind::TraceDrop,      FaultKind::TraceCorrupt,
        FaultKind::MonitorFalseNegative, FaultKind::MonitorDelay,
        FaultKind::DeltaFlip,      FaultKind::LogFlip,
        FaultKind::MacroCorrupt,   FaultKind::MacroTruncate,
        FaultKind::ReleaseFail,
    };
    return kinds;
}

const char *
faultComponentName(FaultComponent c)
{
    switch (c) {
      case FaultComponent::TraceTransport:
        return "trace-transport";
      case FaultComponent::MonitorVerdict:
        return "monitor-verdict";
      case FaultComponent::DeltaBackup:
        return "delta-backup";
      case FaultComponent::UpdateLog:
        return "update-log";
      case FaultComponent::MacroImage:
        return "macro-image";
      case FaultComponent::KernelResources:
        return "kernel-resources";
    }
    return "??";
}

FaultComponent
componentOf(FaultKind k)
{
    switch (k) {
      case FaultKind::TraceDrop:
      case FaultKind::TraceCorrupt:
        return FaultComponent::TraceTransport;
      case FaultKind::MonitorFalseNegative:
      case FaultKind::MonitorDelay:
        return FaultComponent::MonitorVerdict;
      case FaultKind::DeltaFlip:
        return FaultComponent::DeltaBackup;
      case FaultKind::LogFlip:
        return FaultComponent::UpdateLog;
      case FaultKind::MacroCorrupt:
      case FaultKind::MacroTruncate:
        return FaultComponent::MacroImage;
      case FaultKind::ReleaseFail:
        return FaultComponent::KernelResources;
    }
    return FaultComponent::TraceTransport;
}

const std::array<FaultComponent, faultComponentCount> &
allFaultComponents()
{
    static const std::array<FaultComponent, faultComponentCount> cs = {
        FaultComponent::TraceTransport, FaultComponent::MonitorVerdict,
        FaultComponent::DeltaBackup,    FaultComponent::UpdateLog,
        FaultComponent::MacroImage,     FaultComponent::KernelResources,
    };
    return cs;
}

FaultKind
faultKindFromName(const std::string &name, const std::string &key)
{
    return parseEnum("setting '" + key + "'", "fault kind", name,
                     allFaultKinds(), faultKindName);
}

FaultPlan &
FaultPlan::add(FaultKind kind, double rate, std::uint64_t magnitude)
{
    FaultSpec spec;
    spec.kind = kind;
    spec.rate = std::clamp(rate, 0.0, 1.0);
    spec.magnitude = magnitude;
    // Re-arming a kind replaces the old spec.
    for (FaultSpec &s : armed) {
        if (s.kind == kind) {
            s = spec;
            return *this;
        }
    }
    armed.push_back(spec);
    return *this;
}

double
FaultPlan::rate(FaultKind kind) const
{
    for (const FaultSpec &s : armed) {
        if (s.kind == kind)
            return s.rate;
    }
    return 0.0;
}

std::uint64_t
FaultPlan::magnitude(FaultKind kind) const
{
    for (const FaultSpec &s : armed) {
        if (s.kind == kind)
            return s.magnitude;
    }
    return 0;
}

bool
FaultPlan::empty() const
{
    for (const FaultSpec &s : armed) {
        if (s.rate > 0.0)
            return false;
    }
    return true;
}

FaultPlan
FaultPlan::parse(const std::string &text, std::uint64_t seed)
{
    FaultPlan plan;
    plan.setSeed(seed);
    std::stringstream ss(text);
    std::string clause;
    while (std::getline(ss, clause, ',')) {
        if (clause.empty())
            continue;
        // Split the whole clause: a fourth field is an error, not
        // something to drop silently.
        std::vector<std::string> fields;
        std::stringstream cs(clause);
        std::string field;
        while (std::getline(cs, field, ':'))
            fields.push_back(field);
        const std::string where =
            "setting 'faults.plan': fault clause '" + clause + "'";
        fatal_if(fields.size() < 2 || fields[1].empty(), where,
                 " needs kind:rate");
        fatal_if(fields.size() > 3, where,
                 " has extra fields (want kind:rate[:magnitude])");
        FaultKind kind = faultKindFromName(fields[0]);
        double rate = parseF64(where + ": bad rate", fields[1], 0.0, 1.0);
        std::uint64_t magnitude =
            fields.size() == 3 && !fields[2].empty()
                ? parseU64(where + ": bad magnitude", fields[2])
                : 0;
        plan.add(kind, rate, magnitude);
    }
    return plan;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    bool first = true;
    for (const FaultSpec &s : armed) {
        if (!first)
            os << ",";
        first = false;
        os << faultKindName(s.kind) << ":" << s.rate;
        if (s.magnitude)
            os << ":" << s.magnitude;
    }
    return first ? "none" : os.str();
}

} // namespace indra::faults
