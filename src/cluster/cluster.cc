#include "cluster/cluster.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace indra::cluster
{

namespace
{

/** One balanced arrival, already passed through its node's link. */
struct RoutedArrival
{
    Tick tick = 0; //!< delivery tick at the node
    std::uint64_t user = 0;
};

/** One node of the fleet: its machine and its steppable storm. */
struct Node
{
    std::unique_ptr<core::IndraSystem> sys;
    std::unique_ptr<core::NodeHandle> handle;
    std::size_t slot = 0;
    std::vector<RoutedArrival> arrivals;
    std::size_t cursor = 0;   //!< next arrival to inject
    bool drained = false;     //!< last advanceTo returned "no work"
};

/** A recovery that needs a pool slot, in canonical round order. */
struct PoolDemand
{
    Tick tick = 0;
    std::uint32_t node = 0;
    Cycles busy = 0;
    Cycles recovery = 0; //!< node-measured recovery latency
};

} // anonymous namespace

double
ClusterReport::goodput() const
{
    if (endTick == 0)
        return 0.0;
    return static_cast<double>(legitServed) * 1e6 /
           static_cast<double>(endTick);
}

double
ClusterReport::rawThroughput() const
{
    if (endTick == 0)
        return 0.0;
    std::uint64_t executed = 0;
    for (const auto &r : nodeReports)
        executed += r.executed;
    return static_cast<double>(executed) * 1e6 /
           static_cast<double>(endTick);
}

double
ClusterReport::arrivalImbalance() const
{
    if (nodeArrivals.empty())
        return 0.0;
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (std::uint64_t n : nodeArrivals) {
        total += n;
        peak = std::max(peak, n);
    }
    if (total == 0)
        return 0.0;
    double mean = static_cast<double>(total) /
                  static_cast<double>(nodeArrivals.size());
    return static_cast<double>(peak) / mean;
}

ClusterSim::ClusterSim(const core::NodeConfig &base,
                       const resilience::StormPlan &plan,
                       const ClusterConfig &cc,
                       const net::DaemonProfile &prof)
    : baseConfig(base), planTemplate(plan), cfg(cc), profile(prof)
{
    fatal_if(cfg.nodes == 0, "cluster needs at least 1 node");
    fatal_if(cfg.poolSlots == 0,
             "cluster needs at least 1 resurrector pool slot");
    fatal_if(cfg.arrivalRatePerMCycle <= 0.0,
             "cluster needs a positive arrival rate");
    fatal_if(cfg.windowCycles == 0,
             "cluster needs a nonzero scheduler window");
}

ClusterReport
ClusterSim::run()
{
    fatal_if(ran, "ClusterSim::run called twice");
    ran = true;

    ClusterReport rep;
    rep.nodes = cfg.nodes;
    rep.poolSlots = cfg.poolSlots;
    rep.nodeArrivals.assign(cfg.nodes, 0);

    // ------------------------------------------- balance the arrivals
    // One aggregate Poisson stream of Zipf-popular users, sharded by
    // hash and pushed through each node's link. Per-node delivery
    // streams stay sorted because link departures are monotone.
    ZipfSampler zipf(cfg.users, cfg.zipfTheta);
    Pcg32 lbRng(cfg.seed, 0x6c62616cULL); // "lbal"
    std::vector<Node> fleet(cfg.nodes);
    std::vector<NodeLink> links(cfg.nodes, NodeLink(cfg.link));

    Tick t = 0;
    for (std::uint64_t i = 0; i < cfg.requests; ++i) {
        t = saturatingAdd(t, expGap(lbRng, cfg.arrivalRatePerMCycle));
        std::uint64_t user = zipf.sample(lbRng.uniformReal());
        std::uint32_t node = shardOf(user, cfg.nodes);
        fleet[node].arrivals.push_back(
            {links[node].deliver(t), user});
        ++rep.nodeArrivals[node];
    }
    Tick horizon = t;

    // ------------------------------------------------ build the fleet
    for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
        Node &n = fleet[i];
        core::NodeConfig nc = baseConfig;
        nc.system.rngSeed = baseConfig.system.rngSeed + i;
        resilience::StormPlan plan = planTemplate;
        plan.legitRequests = 0; // legit load arrives via inject()
        plan.horizon = horizon;
        // Correlated storms: every node's adversary draws the same
        // stream, so the fleet's recovery demand spikes in phase.
        if (!cfg.correlatedAttack)
            plan.seed = planTemplate.seed + 0x9e3779b9ULL * (i + 1);
        n.sys = std::make_unique<core::IndraSystem>(nc);
        n.sys->boot();
        n.slot = n.sys->deployService(profile);
        n.handle = std::make_unique<core::NodeHandle>(*n.sys, n.slot,
                                                      plan);
        n.handle->collectEvents(true);
    }

    // --------------------------------------------------- round loop
    ResurrectorPool pool(cfg.poolSlots);
    std::vector<Cycles> legitTimes;
    std::vector<Cycles> recoveryTimes;
    Tick cur = 0;
    while (true) {
        // Next tick anyone has work at (injection or scheduled).
        Tick next = maxTick;
        bool pendingWork = false;
        for (Node &n : fleet) {
            if (n.cursor < n.arrivals.size()) {
                next = std::min(next, n.arrivals[n.cursor].tick);
                pendingWork = true;
            }
            if (!n.drained) {
                next = std::min(next, n.handle->nextPendingTick());
                pendingWork = true;
            }
        }
        if (!pendingWork)
            break;
        // Calendar-style skip: jump empty windows in one step.
        Tick bound = next == maxTick
            ? maxTick
            : std::max(saturatingAdd(cur, cfg.windowCycles), next);

        // Inject this window's balanced arrivals.
        for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
            Node &n = fleet[i];
            while (n.cursor < n.arrivals.size() &&
                   n.arrivals[n.cursor].tick <= bound) {
                const RoutedArrival &ra = n.arrivals[n.cursor];
                net::ServiceRequest req;
                req.attack = net::AttackKind::None;
                req.clientClass = net::ClientClass::Standard;
                // A user's requests always land in the same isolated
                // domain, so a confined rewind evicts one user cohort.
                req.domain = static_cast<std::uint32_t>(
                    ra.user % baseConfig.system.domainCount);
                n.handle->inject(ra.tick, req);
                ++n.cursor;
            }
        }

        // Advance every node to the bound in node order and fold in
        // the events it completed.
        std::vector<PoolDemand> demands;
        for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
            core::NodeHandle &h = *fleet[i].handle;
            fleet[i].drained = !h.advanceTo(bound);
            for (const core::NodeEvent &ev : h.drainEvents()) {
                if (ev.legit && !ev.probe &&
                    ev.status == net::RequestStatus::Served)
                    legitTimes.push_back(ev.responseCycles);
                bool pooled = false;
                if (ev.proactiveRestore) {
                    demands.push_back(
                        {ev.tick, i,
                         std::max(ev.proactiveCycles,
                                  cfg.restoreBusyCycles),
                         ev.proactiveCycles});
                    pooled = true;
                }
                if (ev.recoveryCycles == 0)
                    continue;
                // Macro-level heals need a pool resurrector; micro
                // and confined-domain recoveries stay node-local.
                bool macroHeal =
                    ev.status == net::RequestStatus::MacroRecovered ||
                    ev.status == net::RequestStatus::Rejuvenated ||
                    ev.status == net::RequestStatus::Lost;
                if (macroHeal) {
                    demands.push_back(
                        {ev.tick, i,
                         std::max(ev.recoveryCycles,
                                  cfg.restoreBusyCycles),
                         ev.recoveryCycles});
                } else if (!pooled) {
                    recoveryTimes.push_back(ev.recoveryCycles);
                }
            }
        }
        // Couple the nodes through the shared pool, in canonical
        // (tick, node) order.
        std::stable_sort(demands.begin(), demands.end(),
                         [](const PoolDemand &a, const PoolDemand &b) {
                             if (a.tick != b.tick)
                                 return a.tick < b.tick;
                             return a.node < b.node;
                         });
        for (const PoolDemand &d : demands) {
            ResurrectorPool::Grant g = pool.acquire(d.tick, d.busy);
            if (g.queueDelay > 0)
                fleet[d.node].handle->stall(g.queueDelay);
            recoveryTimes.push_back(
                saturatingAdd(d.recovery, g.queueDelay));
        }

        ++rep.rounds;
        cur = bound;
        if (bound == maxTick)
            break;
    }

    // ------------------------------------------------------ finalize
    for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
        resilience::StormReport nr = fleet[i].handle->finish();
        rep.endTick = std::max(rep.endTick, nr.endTick);
        rep.legitArrivals += nr.legitArrivals;
        rep.legitServed += nr.legitServed;
        rep.shedTotal += nr.shedTotal();
        rep.attackArrivals += nr.attackArrivals;
        rep.reinfections += nr.reinfections;
        rep.proactiveRestores += nr.proactiveRestores;
        rep.domainRewinds += nr.domainRewinds;
        rep.nodeReports.push_back(std::move(nr));
    }
    for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
        rep.doorbells += links[i].doorbells();
        rep.linkThrottleDelay = saturatingAdd(
            rep.linkThrottleDelay, links[i].throttleDelay());
    }
    rep.legitP50 = resilience::percentile(legitTimes, 50.0);
    rep.legitP99 = resilience::percentile(legitTimes, 99.0);
    rep.recoveryP99 = resilience::percentile(recoveryTimes, 99.0);
    rep.poolGrants = pool.grants();
    rep.poolQueuedGrants = pool.queuedGrants();
    rep.poolWaitTotal = pool.totalQueueDelay();
    rep.poolWaitP99 = resilience::percentile(pool.queueDelays(), 99.0);
    return rep;
}

} // namespace indra::cluster
