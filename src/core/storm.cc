/**
 * @file
 * The open-loop scheduler: NodeHandle's steppable event loop, with
 * core::runStorm as its run-to-completion helper.
 *
 * A discrete-event loop over one service: legitimate open-loop
 * clients, bursty malicious traffic and injected arrivals are merged
 * into one arrival timeline; every arrival passes the slot's
 * ServiceGuard (when armed), each admitted request is served through
 * the public IndraSystem::processRequest, shed legitimate requests
 * retry with exponential backoff and deterministic jitter, and
 * resurrector probes are issued while the health machine admits only
 * probes. Events are ordered by
 * (tick, creation order), both derived from the plan seed alone, so
 * a fixed-seed storm is bit-identical on any sweep --jobs count.
 *
 * The kernel is event-skipping: time advances by jumping straight to
 * the next scheduled arrival (stallUntil), never by iterating idle
 * ticks. The schedule itself is split by lifetime: every arrival
 * known up front (legitimate clients and attack bursts, all derived
 * from the plan seed before the loop starts) lives in one sorted
 * flat arena consumed by a cursor, while the few events created
 * mid-loop (retries, probes, injected cluster arrivals) go through a
 * small binary heap. Popping the minimum of the two sources by
 * (tick, order) yields exactly the sequence a single priority queue
 * over all events would produce, without heap-percolating millions
 * of statically known arrivals.
 *
 * With an armed AdversaryConfig the malicious side becomes a closed
 * loop: the static attack timeline is not generated at all, and an
 * AdaptiveAdversary — fed the admission-time FIFO occupancy, shed
 * decisions, request outcomes and health states as the loop observes
 * them — plans one move at a time into the dynamic heap. The pump
 * keeps at most one move outstanding, so every plan sees the newest
 * signals; all of its draws come from a per-strategy PCG32 stream, so
 * the loop stays bit-identical for any sweep --jobs count.
 *
 * advanceTo(bound) pauses the very same loop once the next scheduled
 * event lies past @p bound, and runStorm == construct +
 * advanceTo(maxTick) + finish(). Stepping does not change the
 * simulation except under an armed adversary: pumpAdversary runs on
 * every loop pass, AdaptiveAdversary::nextMove draws from its stream
 * and updates its state before it declines a move past its horizon,
 * so the number of declined calls, and with it the run, depends on
 * the advanceTo pattern (ROADMAP.md item 4, "Results never depend on
 * how time is sliced").
 */

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <vector>

#include "adversary/adversary.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace indra::core
{

namespace
{

/** One scheduled arrival (first try, retry, probe, or injection). */
struct Arrival
{
    Tick tick = 0;
    std::uint64_t order = 0; //!< creation order, the tie-break
    net::ServiceRequest req;
    std::uint32_t attempt = 1; //!< 1 = first try
    bool legit = false;        //!< counts toward goodput
    bool probe = false;
};

/** Strict weak order: a is scheduled strictly before b. */
inline bool
arrivalBefore(const Arrival &a, const Arrival &b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    return a.order < b.order;
}

struct ArrivalAfter
{
    bool
    operator()(const Arrival &a, const Arrival &b) const
    {
        return arrivalBefore(b, a);
    }
};

/**
 * The two-source event schedule: a sorted arena of statically known
 * arrivals behind a cursor, and a heap for events created while the
 * loop runs. Orders are unique, so min-merging the sources is
 * deterministic and identical to one big priority queue.
 */
class ArrivalSchedule
{
  public:
    /** Sort the arena once all static arrivals have been appended. */
    void
    seal()
    {
        std::sort(arena.begin(), arena.end(), arrivalBefore);
    }

    void pushStatic(Arrival &&a) { arena.push_back(std::move(a)); }
    void pushDynamic(Arrival &&a) { dynamic.push(std::move(a)); }

    bool
    empty() const
    {
        return cursor == arena.size() && dynamic.empty();
    }

    /** The next event by (tick, order); valid only when !empty(). */
    const Arrival &
    top() const
    {
        if (cursor == arena.size())
            return dynamic.top();
        if (dynamic.empty() ||
            arrivalBefore(arena[cursor], dynamic.top()))
            return arena[cursor];
        return dynamic.top();
    }

    Arrival
    pop()
    {
        if (cursor != arena.size() &&
            (dynamic.empty() ||
             arrivalBefore(arena[cursor], dynamic.top()))) {
            return std::move(arena[cursor++]);
        }
        Arrival a = dynamic.top();
        dynamic.pop();
        return a;
    }

  private:
    std::vector<Arrival> arena;
    std::size_t cursor = 0;
    std::priority_queue<Arrival, std::vector<Arrival>, ArrivalAfter>
        dynamic;
};

} // anonymous namespace

/**
 * The whole storm loop's state. Construction builds the static
 * timelines; advanceTo() runs the event loop; finish() finalizes the
 * report.
 */
struct NodeHandle::Impl
{
    Impl(IndraSystem &sys, std::size_t slot_idx,
         const resilience::StormPlan &plan);

    // ---------------------------------------------------- the loop
    bool advanceTo(Tick bound);
    void step();
    Tick nextWorkTick() const;
    resilience::StormReport finish();

    void pumpAdversary(Tick now);
    void scheduleProbe(Tick now);
    void recordShed(const Arrival &a, net::ShedReason reason,
                    Tick now);

    /** Bind @p a to the next isolated domain, round-robin. */
    void
    stampDomain(Arrival &a)
    {
        a.req.domain = static_cast<std::uint32_t>(
            next_domain++ % sys.config().domainCount);
    }

    IndraSystem &sys;
    std::size_t slotIdx;
    resilience::StormPlan plan;
    ServiceSlot &s;
    resilience::ServiceGuard *guard;

    resilience::StormReport rep;
    ArrivalSchedule events;
    std::uint64_t order = 0;

    Pcg32 legitRng;
    Pcg32 attackRng;
    resilience::RetryScheduler retry;
    std::uint64_t next_domain = 0;
    std::optional<adversary::AdaptiveAdversary> adv;

    std::deque<Arrival> queue; // admitted, not yet started
    std::uint64_t next_seq = 0;
    bool probe_pending = false;
    std::uint64_t probes_left;
    std::vector<Cycles> legit_times;

    bool left_healthy = false;
    bool revived = false;
    std::uint64_t executed_since_depart = 0;

    std::vector<Cycles> recovery_times;
    bool awaiting_reinfect = false;
    Tick last_heal = 0;

    std::uint64_t adv_outstanding = 0;

    bool collect = false; //!< record NodeEvents for drainEvents()
    std::vector<NodeEvent> collected;
    bool finished = false;
};

NodeHandle::Impl::Impl(IndraSystem &system, std::size_t slot_idx,
                       const resilience::StormPlan &storm_plan)
    : sys(system), slotIdx(slot_idx), plan(storm_plan),
      s(sys.slot(slot_idx)),
      guard(s.guard.get()),
      legitRng(plan.seed, 0x6c65676974ULL),  // "legit"
      attackRng(plan.seed, 0x6174746bULL),   // "attk"
      retry(plan.backoff, plan.seed), probes_left(plan.probeBudget)
{
    fatal_if(plan.legitRequests > 0 && plan.legitRatePerMCycle <= 0.0,
             "storm needs a positive legit arrival rate");

    // ---------------------------------------------- arrival timelines
    // Every non-probe arrival is bound to an isolated domain up front
    // (round-robin over the configured count); retries keep their
    // original domain, probes stay unassigned. The stamp is inert
    // under every scheme except DomainRewind.
    Tick t = 0;
    for (std::uint64_t i = 0; i < plan.legitRequests; ++i) {
        t = saturatingAdd(t, expGap(legitRng, plan.legitRatePerMCycle));
        Arrival a;
        a.tick = t;
        a.order = order++;
        a.req.attack = net::AttackKind::None;
        a.req.clientClass = net::ClientClass::Standard;
        a.req.admissionDeadline = plan.deadline;
        a.legit = true;
        stampDomain(a);
        events.pushStatic(std::move(a));
    }
    rep.legitArrivals = plan.legitRequests;
    // The storm rages while legit load is offered; a cluster feeding
    // the node through inject() extends the window via plan.horizon.
    Tick horizon = std::max(t, plan.horizon);

    // The closed-loop attacker replaces the static attack timeline
    // entirely; disarmed (the default) this is a null pointer and the
    // classic precomputed schedule below runs untouched.
    if (plan.adversary.enabled()) {
        adv.emplace(plan.adversary, plan.seed);
        adv->setHorizon(horizon);
    }

    std::uint32_t burst_len = std::max<std::uint32_t>(1, plan.burstLen);
    if (adv) {
        // all malicious traffic comes from the adversary pump
    } else if (plan.attackRatePerMCycle > 0.0) {
        double burst_rate =
            plan.attackRatePerMCycle / static_cast<double>(burst_len);
        Tick bt = 0;
        bool first_burst = true;
        while (true) {
            bt = saturatingAdd(bt, expGap(attackRng, burst_rate));
            if (bt > horizon)
                break;
            for (std::uint32_t k = 0; k < burst_len; ++k) {
                Arrival a;
                a.tick = saturatingAdd(bt, k * plan.burstSpacing);
                a.order = order++;
                a.req.attack =
                    (first_burst && plan.plantDormant && k == 0)
                        ? net::AttackKind::Dormant
                        : plan.attackKind;
                a.req.clientClass = net::ClientClass::Bulk;
                stampDomain(a);
                events.pushStatic(std::move(a));
                ++rep.attackArrivals;
            }
            first_burst = false;
        }
    } else if (plan.plantDormant) {
        Arrival a;
        a.tick = 1;
        a.order = order++;
        a.req.attack = net::AttackKind::Dormant;
        a.req.clientClass = net::ClientClass::Bulk;
        stampDomain(a);
        events.pushStatic(std::move(a));
        ++rep.attackArrivals;
    }

    // Every statically known arrival is in: one sort replaces millions
    // of heap percolations, and consumption is a cursor walk.
    events.seal();
}

void
NodeHandle::Impl::pumpAdversary(Tick now)
{
    // One adversary move may be outstanding at a time; the pump plans
    // the next only after its last arrival has left the schedule, so
    // every plan sees the newest defense signals.
    if (!adv || adv_outstanding != 0)
        return;
    std::optional<adversary::AdversaryMove> mv = adv->nextMove(now);
    if (!mv)
        return;
    ++rep.adversaryMoves;
    rep.adversaryRequests += mv->count;
    INDRA_TRACE(sys.traceLog(), mv->tick,
                obs::EventKind::AdversaryMove,
                static_cast<std::uint32_t>(s.coreId),
                static_cast<std::uint64_t>(plan.adversary.strategy),
                mv->count);
    Tick at = mv->tick;
    for (std::uint32_t k = 0; k < mv->count; ++k) {
        Arrival a;
        a.tick = at;
        a.order = order++;
        a.req.attack = mv->payload;
        a.req.clientClass = net::ClientClass::Bulk;
        stampDomain(a);
        events.pushDynamic(std::move(a));
        ++rep.attackArrivals;
        ++adv_outstanding;
        at = saturatingAdd(at, mv->spacing);
    }
}

void
NodeHandle::Impl::scheduleProbe(Tick now)
{
    if (!guard || probe_pending || probes_left == 0)
        return;
    if (!guard->health().probeOnly())
        return;
    probe_pending = true;
    --probes_left;
    Arrival a;
    a.tick = saturatingAdd(now, plan.probePeriod);
    a.order = order++;
    a.req.attack = net::AttackKind::None;
    a.req.clientClass = net::ClientClass::Probe;
    a.probe = true;
    events.pushDynamic(std::move(a));
    ++rep.probes;
}

void
NodeHandle::Impl::recordShed(const Arrival &a, net::ShedReason reason,
                             Tick now)
{
    ++rep.sheds[static_cast<std::size_t>(reason)];
    if (adv)
        adv->observeShed(now, reason, !a.legit && !a.probe);
    if (a.probe) {
        probe_pending = false;
        scheduleProbe(now);
        return;
    }
    if (!a.legit)
        return; // attackers do not retry
    if (retry.mayRetry(a.attempt)) {
        ++rep.retries;
        Arrival r = a;
        r.tick = saturatingAdd(now, retry.delay(a.attempt));
        r.order = order++;
        ++r.attempt;
        events.pushDynamic(std::move(r));
    } else {
        ++rep.legitGaveUp;
    }
}

Tick
NodeHandle::Impl::nextWorkTick() const
{
    // An admitted-but-unserved request is immediate backlog: it was
    // scheduled at or before the window that admitted it.
    if (!queue.empty())
        return queue.front().tick;
    return events.top().tick;
}

bool
NodeHandle::Impl::advanceTo(Tick bound)
{
    while (true) {
        pumpAdversary(s.core->curTick());
        if (events.empty() && queue.empty())
            return false;
        if (nextWorkTick() > bound)
            return true;
        step();
    }
}

/** Exactly one iteration of the classic storm loop's body. */
void
NodeHandle::Impl::step()
{
    Tick core_free = s.core->curTick();

    // Admit every arrival occurring before the next service could
    // begin (idling forward when nothing is queued).
    while (!events.empty()) {
        Tick next_start = queue.empty()
            ? events.top().tick
            : std::max(core_free, queue.front().tick);
        if (events.top().tick > next_start)
            break;
        Arrival a = events.pop();
        if (adv && !a.legit && !a.probe && adv_outstanding > 0)
            --adv_outstanding;
        if (guard) {
            std::uint32_t occ = s.monitor
                ? s.monitor->fifoOccupancyAt(a.tick)
                : 0;
            if (adv) {
                adv->observeAdmission(a.tick, occ,
                                      guard->config().fifoHighWater);
            }
            resilience::AdmissionDecision d = guard->tryAdmit(
                a.tick, a.req.clientClass, queue.size(), occ,
                a.req.domain);
            if (!d.admitted) {
                recordShed(a, d.reason, a.tick);
                continue;
            }
        }
        queue.push_back(std::move(a));
    }
    if (queue.empty())
        return; // events drained entirely into sheds

    Arrival q = std::move(queue.front());
    queue.pop_front();

    // Deadline shedding happens when service would begin, not at
    // enqueue: the client has hung up by the time we get to it.
    Tick start = std::max(s.core->curTick(), q.tick);
    if (q.req.admissionDeadline != 0 &&
        start > saturatingAdd(q.tick, q.req.admissionDeadline)) {
        if (guard)
            guard->shedDeadline(start, q.req.clientClass);
        recordShed(q, net::ShedReason::Deadline, start);
        return;
    }

    // A proactive policy may owe the service a restore before the
    // next request runs — rejuvenation from the pristine image,
    // no failure required.
    bool proactive_fired = false;
    Cycles proactive_cycles = 0;
    if (guard && guard->proactiveRestoreDue(q.tick)) {
        Tick before = s.core->curTick();
        sys.proactiveRejuvenate(
            slotIdx, q.tick,
            static_cast<std::uint8_t>(
                guard->config().rejuvenation.trigger));
        ++rep.proactiveRestores;
        awaiting_reinfect = true;
        last_heal = s.core->curTick();
        proactive_fired = true;
        proactive_cycles = s.core->curTick() - before;
    }

    s.core->stallUntil(q.tick);
    net::ServiceRequest req = q.req;
    req.seq = next_seq++; // execution order, as the app expects
    bool had_dormant = s.app->hasDormantDamage();
    net::RequestOutcome out = sys.processRequest(slotIdx, req);
    out.startTick = q.tick; // response measured from arrival

    ++rep.executed;
    if (left_healthy && !revived)
        ++executed_since_depart;

    bool needed_recovery =
        out.status != net::RequestStatus::Served &&
        out.status != net::RequestStatus::Shed;
    if (needed_recovery)
        recovery_times.push_back(out.endTick - q.tick);

    // A heal wipes dormant damage; finding it planted again is a
    // re-infection — the event the revival claim is judged by.
    if (out.status == net::RequestStatus::Rejuvenated ||
        out.status == net::RequestStatus::MacroRecovered ||
        out.status == net::RequestStatus::Lost) {
        awaiting_reinfect = true;
        last_heal = out.endTick;
    } else if (out.status == net::RequestStatus::DomainRewound) {
        ++rep.domainRewinds;
        if (s.app->hasDormantDamage()) {
            // A confined rewind must target the planted domain or
            // escalate; damage surviving one is a defect.
            ++rep.dormantAfterRewind;
        } else if (had_dormant) {
            // The rewind healed the plant: it counts as a heal for
            // the re-infection clock, same as the macro levels.
            awaiting_reinfect = true;
            last_heal = out.endTick;
        }
    } else if (awaiting_reinfect && s.app->hasDormantDamage()) {
        ++rep.reinfections;
        if (rep.timeToReinfection == 0) {
            rep.timeToReinfection =
                out.endTick > last_heal ? out.endTick - last_heal : 1;
        }
        awaiting_reinfect = false;
    }

    if (q.probe) {
        probe_pending = false;
        if (out.status == net::RequestStatus::Served)
            ++rep.probesServed;
    } else if (q.legit) {
        if (out.status == net::RequestStatus::Served) {
            ++rep.legitServed;
            legit_times.push_back(out.endTick - q.tick);
        } else {
            ++rep.legitFailed;
        }
    } else {
        ++rep.attackExecuted;
    }

    if (adv) {
        adv->observeOutcome(out.endTick, out, !q.legit && !q.probe);
        if (guard) {
            adv->observeHealth(
                out.endTick,
                static_cast<std::uint8_t>(guard->health().state()));
        }
    }

    if (guard) {
        resilience::HealthState st = guard->health().state();
        if (!left_healthy &&
            st != resilience::HealthState::Healthy) {
            left_healthy = true;
            executed_since_depart = 0;
        } else if (left_healthy && !revived &&
                   st == resilience::HealthState::Healthy) {
            revived = true;
            rep.requestsToRevival = executed_since_depart;
        }
        scheduleProbe(s.core->curTick());
    }

    if (collect) {
        NodeEvent ev;
        ev.tick = out.endTick;
        ev.seq = out.seq;
        ev.status = out.status;
        ev.violation = out.violation;
        ev.legit = q.legit;
        ev.probe = q.probe;
        ev.proactiveRestore = proactive_fired;
        ev.proactiveCycles = proactive_cycles;
        ev.responseCycles = out.endTick - q.tick;
        ev.recoveryCycles = needed_recovery ? out.endTick - q.tick : 0;
        collected.push_back(ev);
    }
}

resilience::StormReport
NodeHandle::Impl::finish()
{
    fatal_if(finished, "NodeHandle::finish called twice");
    finished = true;
    rep.endTick = s.core->curTick();
    rep.legitP50 = resilience::percentile(legit_times, 50.0);
    rep.legitP99 = resilience::percentile(legit_times, 99.0);
    rep.recoveryP99 = resilience::percentile(recovery_times, 99.0);
    if (guard) {
        guard->finalize(rep.endTick);
        for (std::size_t i = 0; i < resilience::healthStateCount; ++i) {
            rep.timeIn[i] = guard->health().timeIn(
                static_cast<resilience::HealthState>(i));
        }
        rep.transitions = guard->health().transitions();
        rep.fullCycles = guard->health().fullCycles();
        rep.bpEngagements = guard->backpressure().engagements();
    }
    return rep;
}

// ------------------------------------------------- NodeHandle facade

NodeHandle::NodeHandle(IndraSystem &sys, std::size_t slot_idx,
                       const resilience::StormPlan &plan)
    : impl(std::make_unique<Impl>(sys, slot_idx, plan))
{
}

NodeHandle::~NodeHandle() = default;

void
NodeHandle::collectEvents(bool on)
{
    impl->collect = on;
}

void
NodeHandle::inject(Tick tick, const net::ServiceRequest &req,
                   bool legit)
{
    Arrival a;
    a.tick = tick;
    a.order = impl->order++;
    a.req = req;
    a.legit = legit;
    if (a.req.domain == net::domainUnassigned)
        impl->stampDomain(a);
    if (legit) {
        if (a.req.admissionDeadline == 0)
            a.req.admissionDeadline = impl->plan.deadline;
        ++impl->rep.legitArrivals;
    } else {
        ++impl->rep.attackArrivals;
    }
    impl->events.pushDynamic(std::move(a));
}

bool
NodeHandle::advanceTo(Tick bound)
{
    return impl->advanceTo(bound);
}

bool
NodeHandle::idle() const
{
    return impl->events.empty() && impl->queue.empty();
}

Tick
NodeHandle::nextPendingTick() const
{
    return idle() ? maxTick : impl->nextWorkTick();
}

Tick
NodeHandle::now() const
{
    return impl->s.core->curTick();
}

void
NodeHandle::stall(Cycles delay)
{
    impl->s.core->stall(delay);
}

std::vector<NodeEvent>
NodeHandle::drainEvents()
{
    std::vector<NodeEvent> out;
    out.swap(impl->collected);
    return out;
}

resilience::StormReport
NodeHandle::finish()
{
    return impl->finish();
}

// ------------------------------------------- run-to-completion helper

resilience::StormReport
runStorm(IndraSystem &sys, std::size_t slot_idx,
         const resilience::StormPlan &plan)
{
    NodeHandle node(sys, slot_idx, plan);
    node.advanceTo(maxTick);
    return node.finish();
}

} // namespace indra::core
