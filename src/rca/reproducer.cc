#include "rca/reproducer.hh"

#include <sstream>

#include "check/json_reader.hh"
#include "obs/json.hh"
#include "sim/logging.hh"

namespace indra::rca
{

std::uint64_t
escapesFor(const CampaignResult &res, faults::FaultComponent component)
{
    std::uint64_t n = 0;
    for (const Failure &f : res.failures)
        if (f.escaped && f.hasSite && f.component == component)
            ++n;
    return n;
}

namespace
{

const Failure *
firstEscape(const CampaignResult &res)
{
    for (const Failure &f : res.failures)
        if (f.escaped)
            return &f;
    return nullptr;
}

/** Refresh a reproducer's expected verdict from a campaign result. */
void
recordVerdict(Reproducer &rep, const CampaignResult &res)
{
    rep.expectEscapes = escapesFor(res, rep.component);
    rep.expectFailures = res.failures.size();
    const Failure *esc = firstEscape(res);
    rep.expectFirstEscapeSeq = esc ? esc->seq : 0;
}

} // anonymous namespace

Reproducer
makeReproducer(const check::Scenario &sc, const CampaignResult &res)
{
    const Failure *esc = firstEscape(res);
    fatal_if(!esc, "makeReproducer: campaign has no escaped failure");
    Reproducer rep;
    rep.scenario = sc;
    rep.kind = esc->kind;
    rep.component = esc->component;
    recordVerdict(rep, res);
    return rep;
}

Reproducer
shrinkReproducer(const Reproducer &rep, const RcaConfig &rcfg)
{
    // The shrinker minimizes "scenario violates invariant X"; wrap
    // the escape predicate as a synthetic verdict with one fixed
    // invariant id so sameFailure() reduces to exactly "still has an
    // escape attributed to this component".
    faults::FaultComponent target = rep.component;
    check::ScenarioRunFn run =
        [&rcfg, target](const check::Scenario &cand) {
            CampaignResult r = runCampaign(cand, rcfg);
            check::ScenarioVerdict v;
            v.requests = r.requests;
            v.violated = escapesFor(r, target) > 0;
            return v;
        };

    check::ScenarioVerdict original;
    original.violated = true;

    check::ShrinkResult shrunk = check::shrinkScenario(
        rep.scenario, original, run, rcfg.shrinkBudget);

    Reproducer out = rep;
    out.scenario = shrunk.scenario;
    out.shrinkRuns = shrunk.runsUsed;
    recordVerdict(out, runCampaign(out.scenario, rcfg));
    return out;
}

bool
replayReproducer(const Reproducer &rep, const RcaConfig &rcfg,
                 CampaignResult *out)
{
    CampaignResult res = runCampaign(rep.scenario, rcfg);
    bool ok = escapesFor(res, rep.component) == rep.expectEscapes &&
              res.failures.size() == rep.expectFailures;
    if (ok && rep.expectEscapes) {
        const Failure *esc = firstEscape(res);
        ok = esc && esc->seq == rep.expectFirstEscapeSeq;
    }
    if (out)
        *out = std::move(res);
    return ok;
}

std::string
reproducerToJson(const Reproducer &rep)
{
    std::string body = rep.scenario.toJson();
    // The scenario serializer ends with "]\n}\n"; splice the rca
    // sidecar keys in before the closing brace so the file stays a
    // valid plain scenario (fromJson ignores unknown keys).
    std::size_t brace = body.rfind('}');
    fatal_if(brace == std::string::npos,
             "scenario JSON missing closing brace");
    std::ostringstream os;
    os << body.substr(0, brace) << ",\n  \"rca_kind\": ";
    obs::jsonString(os, faults::faultKindName(rep.kind));
    os << ",\n  \"rca_component\": ";
    obs::jsonString(os, faults::faultComponentName(rep.component));
    os << ",\n  \"rca_expect_escapes\": " << rep.expectEscapes
       << ",\n  \"rca_expect_failures\": " << rep.expectFailures
       << ",\n  \"rca_first_escape_seq\": " << rep.expectFirstEscapeSeq
       << ",\n  \"rca_shrink_runs\": " << rep.shrinkRuns << "\n}\n";
    return os.str();
}

Reproducer
reproducerFromJson(const std::string &text)
{
    Reproducer rep;
    rep.scenario = check::Scenario::fromJson(text);

    check::JsonValue doc = check::parseJson(text);
    rep.kind = faults::faultKindFromName(
        doc.str("rca_kind", faults::faultKindName(rep.kind)), "rca_kind");
    // Derived, not parsed: the component is a function of the kind,
    // and the sidecar key exists for human readers.
    rep.component = faults::componentOf(rep.kind);
    rep.expectEscapes =
        doc.u64("rca_expect_escapes", rep.expectEscapes);
    rep.expectFailures =
        doc.u64("rca_expect_failures", rep.expectFailures);
    rep.expectFirstEscapeSeq =
        doc.u64("rca_first_escape_seq", rep.expectFirstEscapeSeq);
    rep.shrinkRuns = doc.u64("rca_shrink_runs", rep.shrinkRuns);
    return rep;
}

} // namespace indra::rca
