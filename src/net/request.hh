/**
 * @file
 * Network requests and their outcomes. A request either is benign or
 * carries one of the exploit payloads of Section 2.1 / Table 2; the
 * service application turns it into an instruction stream (benign) or
 * an instruction stream with the exploit's architectural effects
 * spliced in (malicious).
 */

#ifndef INDRA_NET_REQUEST_HH
#define INDRA_NET_REQUEST_HH

#include <cstdint>
#include <string>

#include "monitor/inspector.hh"
#include "sim/types.hh"

namespace indra::net
{

/** Exploit classes a request can carry. */
enum class AttackKind : std::uint8_t
{
    None = 0,       //!< benign request
    StackSmash,     //!< overflow rewrites the return address
    CodeInjection,  //!< shellcode written to the stack and jumped to
    FuncPtrHijack,  //!< function pointer / vtable entry overwritten
    FormatString,   //!< %n-style arbitrary write, then hijacked call
    DosFlood,       //!< teardrop-style corruption; crash, no hijack
    Dormant,        //!< plants damage that surfaces requests later
};

/** Printable attack name. */
const char *attackKindName(AttackKind k);

/**
 * Parse an attack name ("stack-smash", ...); unknown names are fatal,
 * naming @p key and every valid name.
 */
AttackKind attackKindFromName(const std::string &name,
                              const std::string &key = "attack");

/**
 * Which violation each attack is expected to raise first (Table 2);
 * Violation::None for attacks that only manifest as a crash.
 */
mon::Violation expectedViolation(AttackKind k);

/**
 * Source bucket a request belongs to for admission purposes. The
 * resilience layer rate-limits per class: interactive clients are
 * protected from unauthenticated bulk traffic, and health probes pass
 * even while a quarantined service sheds everything else.
 */
enum class ClientClass : std::uint8_t
{
    Standard = 0,  //!< interactive / authenticated client traffic
    Bulk,          //!< unauthenticated bulk traffic (attack storms)
    Probe,         //!< resurrector health probes
};

/** Number of distinct client classes. */
constexpr std::size_t clientClassCount = 3;

/** Printable client-class name. */
const char *clientClassName(ClientClass c);

/** Why admission control refused (or abandoned) a request. */
enum class ShedReason : std::uint8_t
{
    None = 0,     //!< not shed
    QueueFull,    //!< bounded accept queue at capacity
    Deadline,     //!< admission deadline expired before service began
    RateLimited,  //!< client class exhausted its token bucket
    Quarantined,  //!< non-probe traffic refused while quarantined
    Backpressure, //!< trace-FIFO saturation collapsed the window
    DomainDegraded, //!< bulk traffic refused for one degraded domain
};

/** Number of distinct shed reasons (None included). */
constexpr std::size_t shedReasonCount = 7;

/** Printable shed-reason name. */
const char *shedReasonName(ShedReason r);

/**
 * "No domain": requests carry this under every scheme except
 * DomainRewind, whose dispatcher assigns each request to one of the
 * service's isolated domains at arrival.
 */
constexpr std::uint32_t domainUnassigned = ~0u;

/** One inbound request. */
struct ServiceRequest
{
    std::uint64_t seq = 0;    //!< arrival order
    AttackKind attack = AttackKind::None;
    /** Relative size/complexity multiplier (1.0 = typical). */
    double weight = 1.0;
    /** Admission bucket this request's source belongs to. */
    ClientClass clientClass = ClientClass::Standard;
    /**
     * Cycles after arrival by which service must *begin* or the
     * request is shed instead of queuing forever. 0 = no deadline.
     */
    Cycles admissionDeadline = 0;
    /** Isolated domain handling this request (DomainRewind only). */
    std::uint32_t domain = domainUnassigned;
};

/** How a request was disposed of. */
enum class RequestStatus : std::uint8_t
{
    Served,            //!< completed normally
    DetectedRecovered, //!< exploit detected, micro recovery succeeded
    CrashedRecovered,  //!< service crashed, recovery succeeded
    MacroRecovered,    //!< needed the macro (application) checkpoint
    Rejuvenated,       //!< needed a full service rejuvenation
    Lost,              //!< no recovery mechanism; service went down
    Shed,              //!< refused by admission control (never executed)
    DomainRewound,     //!< discarded by a confined domain rewind;
                       //!< other domains kept serving
};

/** Printable status name. */
const char *requestStatusName(RequestStatus s);

/** Measured outcome of one request. */
struct RequestOutcome
{
    std::uint64_t seq = 0;
    AttackKind attack = AttackKind::None;
    RequestStatus status = RequestStatus::Served;
    mon::Violation violation = mon::Violation::None;
    /** Set when status == Shed: why admission refused the request. */
    ShedReason shedReason = ShedReason::None;
    /** Admission bucket the request arrived under. */
    ClientClass clientClass = ClientClass::Standard;
    /** Isolated domain that served the request (DomainRewind only). */
    std::uint32_t domain = domainUnassigned;
    Tick startTick = 0;
    Tick endTick = 0;
    /**
     * Tick the failure verdict was established (monitor detection —
     * including any injected verdict delay — or crash); 0 when the
     * request never failed. endTick - failTick is recovery time,
     * failTick - startTick the in-band detection latency rca compares
     * the replay detector against.
     */
    Tick failTick = 0;
    std::uint64_t instructions = 0;

    Cycles responseTime() const { return endTick - startTick; }
};

} // namespace indra::net

#endif // INDRA_NET_REQUEST_HH
