/**
 * @file
 * The repository benchmark: five fixed-seed, open-loop workloads that
 * together put every simulator layer on the host clock, timed end to
 * end and, in a separate traced run, layer by layer from outside the
 * simulator (nothing under src/ is instrumented).
 *
 * Usage: perf_kernel --workload NAME [--seed N] [--seconds S] [--trace]
 *                    [--smoke]
 *
 * A run simulates the workload's n storms (n = 8 or 16) at storm seeds
 * n*seed .. n*seed+n-1, each on a freshly built machine; the n reps
 * form a round, and identical rounds repeat until --seconds is spent
 * (at least three; a traced run alternates untraced and traced rounds,
 * at least one of each; --smoke quarters every load and the storms
 * and needs one round). Stdout carries the simulated results,
 * "digest <hex>" (a hash of every simulated number of a round) and,
 * last, one JSON object {correct, attempted, failed, metrics}. Host
 * timing goes to stderr.
 *
 * Workloads. Arrivals follow a schedule drawn from the storm seed
 * alone, never from how fast the service answers (open loop); every
 * node serves httpd at 25k instructions per request, and the modelled
 * caches start empty on every rep. Pooling n storms per round is what
 * makes a run's results nearly independent of --seed: one storm's mix
 * of recoveries swings by 20% or more from seed to seed. Per storm:
 *
 *   clean_stream    8 storms. Legit-only load well below saturation:
 *                   150 requests at 0.8 req/Mcycle, DeltaBackup, no
 *                   guard. Core, memory, monitor and the store hooks
 *                   do all the work, with zero recoveries; any shed or
 *                   give-up fails the run. The workload every
 *                   restore-path change bypasses.
 *   recovery_storm  16 storms. An unguarded 16/Mcycle StackSmash storm
 *                   in bursts of 8 over a 0.5 req/Mcycle legit trickle
 *                   (6 legit requests, ~200 arrivals): bursts drive the
 *                   ladder through macro restore and rejuvenation.
 *                   Where restore-path work must show.
 *   domain_rewind   16 storms. The DomainRewind scheme, 8 domains,
 *                   guarded, a reinfect adversary (budget 80) against
 *                   60 legit requests: per-store anchor capture on the
 *                   write path beside page-copy rewinds. A restore-side
 *                   gain that slows the write path shows here.
 *   admission_storm 16 storms. Guarded node, probe-burst adversary
 *                   (budget 225), periodic proactive rejuvenation, 150
 *                   legit requests at 0.5 req/Mcycle. Most arrivals are
 *                   shed, so admission, health, retry and the adversary
 *                   do the work.
 *   cluster_storm   16 storms. 6 nodes, 2 shared resurrector slots, 100
 *                   legit requests balanced at 0.6 req/Mcycle per node,
 *                   a correlated reinfect adversary, nodes stepped on 2
 *                   sweep threads: scheduler rounds, the pool, the
 *                   links and the ParallelSweep barrier. The only
 *                   workload where host parallelism can show.
 *
 * End-to-end metrics (untraced run; bounds are in BENCHMARK.json):
 *
 *   sim_req_per_s     1/s      higher  requests executed by the
 *                                      simulated cores per reference
 *                                      second (below). Shed arrivals
 *                                      cost next to nothing and are
 *                                      not counted.
 *   sim_minstr_per_s  Minstr/s higher  simulated instructions (the
 *                                      stats tree's core instructions)
 *                                      per reference second. ClusterSim
 *                                      keeps its nodes' stats, so on
 *                                      cluster_storm the count is
 *                                      executed requests x 25k.
 *   setup_s           s        lower   construct + boot + deploy of
 *                                      one rep's machines in reference
 *                                      seconds, median over every rep
 *   peak_rss_mb       MB       lower   peak resident set of the
 *                                      process, less the reference's
 *                                      33 MiB of buffers
 *   legit_p50_kcycles kcycles  lower   simulated median legit response
 *                                      time over the round's storms
 *                                      (cluster_storm: median of the
 *                                      fleets' medians, whose samples
 *                                      ClusterSim keeps)
 *
 * Host times are in reference seconds. Before every rep the run times
 * two fixed pieces of host work (see HostReference), and a round's
 * host times are multiplied by referenceSeconds over the geometric
 * mean of their times in that round. A shared host runs everything
 * slower in phases of tens of seconds to minutes: on a 4-vCPU VM the
 * same round ran 1.5x slower in one phase than in another, and the
 * scaling removed about half of that spread, never all of it. Within
 * a run, rounds differ by about 10% more; each host metric is the
 * median over rounds. Raw times, the scales and the quartiles go to
 * stderr. A change to the simulator moves the reps but never the
 * reference, which lives here.
 *
 * The simulated results are exact for a seed and hashed into the
 * digest, which is printed but never compared with a checked-in
 * value: a host-only change proves itself by an unchanged digest, and
 * a model change stays possible. Only legit_p50_kcycles is also an
 * end-to-end metric. Goodput and the served share swing 10-20% across
 * seeds on admission_storm and cluster_storm even pooled over 16
 * storms, legit latency has no fixed percentile with ten samples
 * beyond it on every workload, and clean_stream has no recoveries, so
 * those are per-layer metrics (sim.*), printed with sample counts.
 *
 * Per-layer metrics (traced run). Host time is measured by decorators
 * interposed on the core's public hook setters (CheckpointHooks around
 * the slot's policy, TraceSink around its monitor, SyscallHandler
 * around the kernel) and by stepping core::NodeHandle one
 * advanceTo(nextPendingTick()) at a time, one span per step. A step's
 * self time is its wall time minus the hook time inside it; each step
 * is classed by the costliest request it completed (rejuvenation or
 * proactive restore > macro > domain rewind > micro > served; a step
 * that completed nothing is shed_only). Layer times are those of the
 * traced round with the median scaled wall, in reference seconds.
 * Simulated counters come from the public stats tree and the storm
 * and cluster reports, summed over the round (cluster medians are
 * over its fleets).
 *
 * Which end-to-end metric each layer metric should move, and where:
 *
 *   core.recovery_{macro,rejuv}_self_s -> sim_req_per_s on
 *       recovery_storm; clean_stream should not move
 *   checkpoint.store_hook_s -> sim_req_per_s on domain_rewind and
 *       clean_stream
 *   core.exec_self_s, monitor.submit_s -> sim_minstr_per_s on
 *       clean_stream; recovery_storm should not move
 *   cluster.round_s, cluster.jobs_speedup -> sim_req_per_s on
 *       cluster_storm only
 *   resilience.*, core.shed_only_s -> sim_req_per_s on admission_storm
 *   simulated: checkpoint.backup_cycles, monitor.fifo_stall_cycles ->
 *       legit_p50_kcycles on clean_stream;
 *       checkpoint.macro_restore_cycles -> sim.recovery_tail_kcycles on
 *       recovery_storm; cluster.pool_wait_p99_kcycles ->
 *       cluster.recovery_p99_kcycles on cluster_storm
 *
 * Tracing costs host time: trace.overhead_frac is the median traced
 * round's scaled wall over the median untraced round's, minus one.
 * Compare layer times with each other, never with an untraced
 * end-to-end number. ClusterSim owns its nodes, so cluster_storm has
 * no hook or step spans: its traced rounds run on one sweep thread
 * instead, giving cluster.jobs_speedup, and its overhead is 0.
 *
 * The simulated machine is a model that has not been validated
 * against hardware; no simulated number here carries an error figure.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "harness/parallel_sweep.hh"
#include "obs/stat_sinks.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace indra;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** First quartile, median and third quartile of @p v. */
struct Quartiles
{
    double q1 = 0, median = 0, q3 = 0;
};

/** Same rule as Python's statistics.quantiles(v, n=4). */
Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n < 2)
        return n ? Quartiles{v[0], v[0], v[0]} : Quartiles{};
    double q[3];
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = std::clamp<std::size_t>(i * (n + 1) / 4, 1, n - 1);
        double delta = static_cast<double>(i * (n + 1)) -
                       static_cast<double>(j * 4);
        q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    }
    return {q[0], q[1], q[2]};
}

// ------------------------------------------------------------ workloads

struct Workload
{
    std::string name;
    bool cluster = false;
    CheckpointScheme scheme = CheckpointScheme::DeltaBackup;
    std::uint32_t domains = 0; //!< 0 = config default
    double legitRate = 1.0;
    std::uint64_t legitRequests = 0;
    Cycles deadline = 3000000;
    double attackRate = 0;
    std::uint32_t burst = 1;
    bool guarded = false;
    adversary::AdversaryStrategy strategy =
        adversary::AdversaryStrategy::Fixed;
    std::uint64_t adversaryBudget = 0; //!< 0 = static attack timeline
    bool proactiveRestore = false;
    /** Storms per round: seed s runs storm seeds n*s .. n*s+n-1. */
    std::uint32_t storms = 16;
};

std::vector<Workload>
workloads()
{
    std::vector<Workload> all;
    {
        Workload w;
        w.name = "clean_stream";
        w.storms = 8;
        w.legitRate = 0.8;
        w.legitRequests = 150;
        w.deadline = 20000000;
        all.push_back(w);
    }
    {
        Workload w;
        w.name = "recovery_storm";
        w.legitRate = 0.5;
        w.legitRequests = 6;
        w.attackRate = 16.0;
        w.burst = 8;
        all.push_back(w);
    }
    {
        Workload w;
        w.name = "domain_rewind";
        w.scheme = CheckpointScheme::DomainRewind;
        w.domains = 8;
        w.legitRequests = 60;
        w.burst = 4;
        w.guarded = true;
        w.strategy = adversary::AdversaryStrategy::Reinfect;
        w.adversaryBudget = 80;
        all.push_back(w);
    }
    {
        Workload w;
        w.name = "admission_storm";
        w.legitRate = 0.5;
        w.legitRequests = 150;
        w.burst = 4;
        w.guarded = true;
        w.strategy = adversary::AdversaryStrategy::ProbeBurst;
        w.adversaryBudget = 225;
        w.proactiveRestore = true;
        all.push_back(w);
    }
    {
        Workload w;
        w.name = "cluster_storm";
        w.cluster = true;
        w.legitRate = 0.6; // per node, through the balancer
        w.legitRequests = 100;
        w.deadline = 8000000;
        w.burst = 4;
        w.guarded = true;
        w.strategy = adversary::AdversaryStrategy::Reinfect;
        w.adversaryBudget = 10;
        all.push_back(w);
    }
    return all;
}

constexpr std::uint32_t clusterNodes = 6;
constexpr unsigned clusterJobs = 2;

net::DaemonProfile
serviceProfile()
{
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25000;
    return profile;
}

core::NodeConfig
nodeConfig(const Workload &w)
{
    core::NodeConfig nc;
    nc.system.physMemBytes = 128ULL * 1024 * 1024;
    nc.system.consecutiveFailureThreshold = 4;
    nc.system.checkpointScheme = w.scheme;
    if (w.domains)
        nc.system.domainCount = w.domains;
    if (w.cluster) {
        nc.system.macroCheckpointPeriod = 10;
        nc.system.rejuvenationCycles = 2000000;
    }
    if (w.guarded) {
        nc.resilience.queueBound = 6;
        nc.resilience.fifoHighWater = w.cluster ? 24 : 48;
        nc.resilience.degradeViolations = 2;
        nc.resilience.quarantineFailStreak = 2;
        nc.resilience.healServedStreak = 3;
    }
    if (w.proactiveRestore) {
        auto &rj = nc.resilience.rejuvenation;
        rj.trigger = resilience::RejuvenationTrigger::Periodic;
        rj.period = 10000000;
        rj.cooldown = 4000000;
    }
    return nc;
}

resilience::StormPlan
stormPlan(const Workload &w, std::uint64_t storm_seed)
{
    resilience::StormPlan plan;
    plan.seed = storm_seed;
    // A cluster node's legit load arrives through the balancer.
    plan.legitRequests = w.cluster ? 0 : w.legitRequests;
    plan.legitRatePerMCycle = w.legitRate;
    plan.attackRatePerMCycle = w.attackRate;
    plan.burstLen = w.burst;
    plan.attackKind = net::AttackKind::StackSmash;
    plan.deadline = w.deadline;
    plan.probePeriod = 50000;
    if (w.adversaryBudget != 0) {
        plan.adversary.armed = true;
        plan.adversary.strategy = w.strategy;
        plan.adversary.budget = w.adversaryBudget;
        plan.adversary.burstLen = w.burst;
        plan.adversary.baseGap = 500000;
        plan.adversary.payload = net::AttackKind::StackSmash;
        if (w.cluster)
            plan.adversary.reinfectDelay = 100000;
    }
    return plan;
}

cluster::ClusterConfig
clusterConfig(const Workload &w, std::uint64_t storm_seed)
{
    cluster::ClusterConfig cc;
    cc.nodes = clusterNodes;
    cc.poolSlots = 2;
    cc.users = 200000;
    cc.requests = w.legitRequests;
    cc.arrivalRatePerMCycle = w.legitRate * cc.nodes;
    cc.link.ratePerMCycle = 40.0;
    cc.seed = storm_seed;
    return cc;
}

// ----------------------------------------------------- the stats tree

/** Every scalar of a stats tree, flattened, with its parent group. */
class FlatStats : public obs::PrefixedStatSink
{
  public:
    struct Entry
    {
        std::string group; //!< immediate parent group
        std::string name;
        std::string path; //!< full dotted path
        double value;
    };

    void
    visitScalar(const stats::StatBase &s, double v) override
    {
        add(s.name(), v);
    }

    void
    visitDistribution(const stats::Distribution &d) override
    {
        add(d.name() + ".count", static_cast<double>(d.count()));
        add(d.name() + ".sum", d.sum());
    }

    void
    visitHistogram(const stats::Histogram &h) override
    {
        add(h.name() + ".count", static_cast<double>(h.count()));
    }

    /** Sum of stat @p name over groups whose name starts with @p group
     *  (the checkpoint engine's group is ckpt_delta or ckpt_domain). */
    double
    sum(const std::string &group, const std::string &name) const
    {
        double total = 0;
        for (const Entry &e : entries) {
            if (e.name == name && e.group.rfind(group, 0) == 0)
                total += e.value;
        }
        return total;
    }

    std::vector<Entry> entries;

  private:
    void
    add(const std::string &name, double v)
    {
        // prefix() is "a.b.group." with a trailing dot.
        const std::string &p = prefix();
        std::size_t end = p.empty() ? 0 : p.size() - 1;
        std::size_t dot = end == 0 ? std::string::npos : p.rfind('.', end - 1);
        std::size_t begin = dot == std::string::npos ? 0 : dot + 1;
        entries.push_back({p.substr(begin, end - begin), name, p + name, v});
    }
};

// ------------------------------------------------------ one rep's result

/** What one storm simulated: the reports, samples and stats tree. */
struct SimResult
{
    std::vector<resilience::StormReport> nodes;
    std::optional<cluster::ClusterReport> fleet;
    FlatStats stats; //!< empty for the cluster (nodes live in ClusterSim)
    /** Response times of served legit and of recovered requests
     *  (single node only; ClusterSim keeps the fleet's). */
    std::vector<Cycles> legitTimes, recoveryTimes;

    template <typename Fn>
    std::uint64_t
    total(Fn field) const
    {
        std::uint64_t n = 0;
        for (const auto &r : nodes)
            n += field(r);
        return n;
    }

    /** Arrivals handled: executed or shed. */
    std::uint64_t
    arrivals() const
    {
        return total([](const auto &r) { return r.executed + r.shedTotal(); });
    }

    std::uint64_t
    executed() const
    {
        return total([](const auto &r) { return r.executed; });
    }

    /** Simulated instructions (see the header for the cluster). */
    double
    instructions() const
    {
        if (fleet)
            return static_cast<double>(executed()) *
                   static_cast<double>(serviceProfile().instrPerRequest);
        return stats.sum("core", "instructions");
    }

    std::uint64_t
    legitArrivals() const
    {
        return total([](const auto &r) { return r.legitArrivals; });
    }

    std::uint64_t
    legitServed() const
    {
        return total([](const auto &r) { return r.legitServed; });
    }

    /** Legit requests whose disposition a node lost track of. */
    std::uint64_t
    unaccounted() const
    {
        return total([](const auto &r) {
            std::uint64_t seen = r.legitServed + r.legitFailed + r.legitGaveUp;
            return seen > r.legitArrivals ? seen - r.legitArrivals
                                          : r.legitArrivals - seen;
        });
    }

    std::uint64_t
    dormantAfterRewind() const
    {
        return total([](const auto &r) { return r.dormantAfterRewind; });
    }

    Tick
    endTick() const
    {
        return fleet ? fleet->endTick : nodes.front().endTick;
    }

    /** FNV-1a over every simulated number; host timing never enters. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto mix = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        };
        for (const auto &r : nodes) {
            for (std::uint64_t v :
                 {r.legitArrivals, r.attackArrivals, r.probes,
                  r.legitServed, r.legitFailed, r.legitGaveUp, r.retries,
                  r.attackExecuted, r.probesServed, r.executed,
                  r.endTick, r.legitP50, r.legitP99, r.transitions,
                  r.fullCycles, r.bpEngagements, r.requestsToRevival,
                  r.adversaryMoves, r.adversaryRequests, r.reinfections,
                  r.timeToReinfection, r.proactiveRestores,
                  r.recoveryP99, r.domainRewinds, r.dormantAfterRewind})
                mix(v);
            for (std::uint64_t v : r.sheds)
                mix(v);
            for (Cycles v : r.timeIn)
                mix(v);
        }
        if (fleet) {
            const cluster::ClusterReport &f = *fleet;
            for (std::uint64_t v :
                 {f.endTick, f.rounds, f.legitArrivals, f.legitServed,
                  f.shedTotal, f.attackArrivals, f.reinfections,
                  f.proactiveRestores, f.domainRewinds, f.legitP50,
                  f.legitP99, f.recoveryP99, f.poolGrants,
                  f.poolQueuedGrants, f.poolWaitTotal, f.poolWaitP99,
                  f.doorbells, f.linkThrottleDelay})
                mix(v);
            for (std::uint64_t v : f.nodeArrivals)
                mix(v);
        }
        for (const std::vector<Cycles> *times : {&legitTimes, &recoveryTimes}) {
            mix(times->size());
            for (Cycles v : *times)
                mix(v);
        }
        for (const FlatStats::Entry &e : stats.entries) {
            for (char c : e.path)
                mix(static_cast<unsigned char>(c));
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(e.value));
            std::memcpy(&bits, &e.value, sizeof(bits));
            mix(bits);
        }
        return h;
    }
};

// --------------------------------------------------- outside-in tracing

/** Host time and call count spent behind one layer boundary. */
struct LayerClock
{
    double seconds = 0;
    std::uint64_t calls = 0;

    template <typename Fn>
    auto
    time(Fn &&fn)
    {
        auto t0 = Clock::now();
        auto result = fn();
        seconds += secondsSince(t0);
        ++calls;
        return result;
    }

    LayerClock &
    operator+=(const LayerClock &o)
    {
        seconds += o.seconds;
        calls += o.calls;
        return *this;
    }
};

/** Times every call into the wrapped checkpoint engine's hooks. */
class TimedHooks : public cpu::CheckpointHooks
{
  public:
    explicit TimedHooks(cpu::CheckpointHooks &inner) : inner(inner) {}

    Cycles
    onStore(Tick tick, Pid pid, Addr vaddr, std::uint32_t bytes) override
    {
        return store.time(
            [&] { return inner.onStore(tick, pid, vaddr, bytes); });
    }

    Cycles
    onLoad(Tick tick, Pid pid, Addr vaddr, std::uint32_t bytes) override
    {
        return load.time(
            [&] { return inner.onLoad(tick, pid, vaddr, bytes); });
    }

    LayerClock store, load;

  private:
    cpu::CheckpointHooks &inner;
};

/** Times every record pushed to the wrapped monitor. */
class TimedTraceSink : public cpu::TraceSink
{
  public:
    explicit TimedTraceSink(cpu::TraceSink &inner) : inner(inner) {}

    Tick
    submit(const cpu::TraceRecord &rec, Tick tick) override
    {
        return submits.time([&] { return inner.submit(rec, tick); });
    }

    Tick
    drainTick() const override
    {
        ++drains;
        return inner.drainTick();
    }

    LayerClock submits;
    mutable std::uint64_t drains = 0;

  private:
    cpu::TraceSink &inner;
};

/** Times every syscall into the wrapped kernel. */
class TimedSyscalls : public cpu::SyscallHandler
{
  public:
    explicit TimedSyscalls(cpu::SyscallHandler &inner) : inner(inner) {}

    cpu::SyscallResult
    syscall(Tick tick, Pid pid, std::uint32_t sysno, std::uint64_t arg0,
            std::uint64_t arg1) override
    {
        return calls.time(
            [&] { return inner.syscall(tick, pid, sysno, arg0, arg1); });
    }

    LayerClock calls;

  private:
    cpu::SyscallHandler &inner;
};

/** Step classes, cheapest first; a step takes its costliest outcome. */
enum StepClass
{
    ShedOnly,
    Exec,
    Micro,
    Domain,
    Macro,
    Rejuv,
    stepClassCount
};

const char *const stepClassMetric[stepClassCount] = {
    "core.shed_only_s",
    "core.exec_self_s",
    "core.recovery_micro_self_s",
    "core.recovery_domain_self_s",
    "core.recovery_macro_self_s",
    "core.recovery_rejuv_self_s",
};

StepClass
classOf(const core::NodeEvent &ev)
{
    if (ev.proactiveRestore)
        return Rejuv;
    switch (ev.status) {
      case net::RequestStatus::Served:
        return Exec;
      case net::RequestStatus::DetectedRecovered:
      case net::RequestStatus::CrashedRecovered:
        return Micro;
      case net::RequestStatus::DomainRewound:
        return Domain;
      case net::RequestStatus::MacroRecovered:
      case net::RequestStatus::Lost:
        return Macro;
      case net::RequestStatus::Rejuvenated:
        return Rejuv;
      case net::RequestStatus::Shed:
        break;
    }
    return ShedOnly;
}

/** What traced storms measured beside their simulated results. */
struct TraceResult
{
    double wall = 0;      //!< NodeHandle construction to finish()
    double stepTotal = 0; //!< sum of the step spans
    std::uint64_t steps = 0;
    double selfSeconds[stepClassCount] = {};
    LayerClock store, load, submit, syscall;
    std::uint64_t drains = 0;

    double
    childSeconds() const
    {
        return store.seconds + load.seconds + submit.seconds +
               syscall.seconds;
    }

    double
    selfTotal() const
    {
        double self = 0;
        for (double s : selfSeconds)
            self += s;
        return self;
    }

    TraceResult &
    operator+=(const TraceResult &o)
    {
        wall += o.wall;
        stepTotal += o.stepTotal;
        steps += o.steps;
        for (int c = 0; c < stepClassCount; ++c)
            selfSeconds[c] += o.selfSeconds[c];
        store += o.store;
        load += o.load;
        submit += o.submit;
        syscall += o.syscall;
        drains += o.drains;
        return *this;
    }
};

// ------------------------------------------------------ host reference

/**
 * Fixed pieces of host work timed before every rep: a dependent
 * multiply chain whose every step reads, modifies and writes a random
 * slot of a 1 MiB table (cache- and latency-bound), and one copy of a
 * 16 MiB buffer (bandwidth-bound). The simulator's own time is a mix
 * of both kinds, and of the two it tracked co-tenant slowdowns best
 * through their geometric mean. They share no code with the
 * simulator, so a change there never moves them.
 */
class HostReference
{
  public:
    /** Geometric mean of the two parts on the host the scale is
     *  expressed in: a quiet 2 GHz Xeon vCPU. */
    static constexpr double referenceSeconds = 0.004;
    /** Bytes the reference keeps resident for the whole run. */
    static constexpr std::size_t residentBytes =
        (1u << 20) + 2 * (16u << 20);

    /** Time both parts once: {chain seconds, copy seconds}. */
    std::pair<double, double>
    time()
    {
        auto t0 = Clock::now();
        std::uint64_t x = state;
        for (int k = 0; k < 400000; ++k) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            std::uint32_t &slot = table[(x >> 40) & (table.size() - 1)];
            slot += static_cast<std::uint32_t>(x >> 8);
            x ^= slot;
        }
        state = x;
        double chain = secondsSince(t0);

        t0 = Clock::now();
        std::memcpy(to.data(), from.data(), from.size());
        from[x & (from.size() - 1)] = to[state & (to.size() - 1)];
        return {chain, secondsSince(t0)};
    }

  private:
    std::vector<std::uint32_t> table = std::vector<std::uint32_t>(1u << 18);
    std::vector<char> from = std::vector<char>(16u << 20, 1);
    std::vector<char> to = std::vector<char>(16u << 20, 0);
    std::uint64_t state = 1;
};

// ----------------------------------------------------------- the reps

struct Rep
{
    double chain = 0, copy = 0; //!< host reference, just before the rep
    double setup = 0;           //!< construct + boot + deploy
    double wall = 0;  //!< the storm (the whole fleet run for a cluster)
    SimResult sim;
    std::optional<TraceResult> trace;
};

struct Node
{
    std::unique_ptr<core::IndraSystem> sys;
    std::size_t slot = 0;
};

Node
buildNode(const core::NodeConfig &nc)
{
    Node n;
    n.sys = std::make_unique<core::IndraSystem>(nc);
    n.sys->boot();
    n.slot = n.sys->deployService(serviceProfile());
    return n;
}

/** Collect one step's events into @p sim; return the step's class. */
StepClass
takeEvents(core::NodeHandle &node, SimResult &sim)
{
    StepClass cls = ShedOnly;
    for (const core::NodeEvent &ev : node.drainEvents()) {
        cls = std::max(cls, classOf(ev));
        if (ev.legit && !ev.probe && ev.status == net::RequestStatus::Served)
            sim.legitTimes.push_back(ev.responseCycles);
        if (ev.recoveryCycles != 0)
            sim.recoveryTimes.push_back(ev.recoveryCycles);
    }
    return cls;
}

/**
 * The bound of @p node's next step. Traced and untraced storms both
 * advance one pending tick at a time (an idle schedule may still owe
 * an adversary move, pumped at the current tick), because the step
 * pattern is not free: every advanceTo() asks an armed adaptive
 * adversary for a move, and a move it declines past the storm's
 * horizon still draws from its random stream. One advanceTo(maxTick)
 * can therefore end a storm differently (admission_storm, storm seed
 * 44: 127 requests executed against 129 stepped).
 */
Tick
nextBound(const core::NodeHandle &node)
{
    return node.idle() ? node.now() : node.nextPendingTick();
}

/**
 * Step @p sys's storm to completion with every hook timed, and return
 * the storm's report.
 */
resilience::StormReport
traceStorm(core::IndraSystem &sys, std::size_t slot_idx,
           const resilience::StormPlan &plan, SimResult &sim,
           TraceResult &tr)
{
    core::ServiceSlot &slot = sys.slot(slot_idx);
    TimedHooks hooks(*slot.policy);
    TimedSyscalls syscalls(sys.kernel());
    std::optional<TimedTraceSink> sink;
    slot.core->setCheckpointHooks(&hooks);
    slot.core->setSyscallHandler(&syscalls);
    if (slot.monitor) {
        sink.emplace(*slot.monitor);
        slot.core->setTraceSink(&*sink);
    }
    auto hookSeconds = [&] {
        return hooks.store.seconds + hooks.load.seconds +
               (sink ? sink->submits.seconds : 0) + syscalls.calls.seconds;
    };

    auto t0 = Clock::now();
    core::NodeHandle node(sys, slot_idx, plan);
    node.collectEvents(true);
    for (bool more = true; more || !node.idle();) {
        Tick bound = nextBound(node);
        double hooks0 = hookSeconds();
        auto s0 = Clock::now();
        more = node.advanceTo(bound);
        double span = secondsSince(s0);

        StepClass cls = takeEvents(node, sim);
        tr.selfSeconds[cls] += span - (hookSeconds() - hooks0);
        tr.stepTotal += span;
        ++tr.steps;
    }
    resilience::StormReport report = node.finish();
    tr.wall = secondsSince(t0);

    tr.store = hooks.store;
    tr.load = hooks.load;
    tr.syscall = syscalls.calls;
    if (sink) {
        tr.submit = sink->submits;
        tr.drains = sink->drains;
    }
    // The decorators die here; give the core its layers back.
    slot.core->setCheckpointHooks(slot.policy.get());
    slot.core->setSyscallHandler(&sys.kernel());
    if (slot.monitor)
        slot.core->setTraceSink(slot.monitor.get());
    return report;
}

Rep
runNode(const Workload &w, std::uint64_t storm_seed, bool traced)
{
    Rep rep;
    auto t0 = Clock::now();
    Node n = buildNode(nodeConfig(w));
    rep.setup = secondsSince(t0);

    resilience::StormPlan plan = stormPlan(w, storm_seed);
    if (traced) {
        rep.trace.emplace();
        rep.sim.nodes.push_back(
            traceStorm(*n.sys, n.slot, plan, rep.sim, *rep.trace));
        rep.wall = rep.trace->wall;
    } else {
        t0 = Clock::now();
        core::NodeHandle node(*n.sys, n.slot, plan);
        node.collectEvents(true);
        for (bool more = true; more || !node.idle();) {
            more = node.advanceTo(nextBound(node));
            takeEvents(node, rep.sim);
        }
        rep.sim.nodes.push_back(node.finish());
        rep.wall = secondsSince(t0);
    }
    n.sys->rootStats().accept(rep.sim.stats);
    return rep;
}

Rep
runCluster(const Workload &w, std::uint64_t storm_seed, unsigned jobs)
{
    const core::NodeConfig base = nodeConfig(w);
    Rep rep;
    {
        // ClusterSim builds its fleet inside run(), out of reach of a
        // timer; time a fleet built by the same recipe instead.
        std::vector<Node> fleet;
        auto t0 = Clock::now();
        for (std::uint32_t i = 0; i < clusterNodes; ++i) {
            core::NodeConfig nc = base;
            nc.system.rngSeed += i;
            fleet.push_back(buildNode(nc));
        }
        rep.setup = secondsSince(t0);
    }
    cluster::ClusterSim sim(base, stormPlan(w, storm_seed),
                            clusterConfig(w, storm_seed), serviceProfile());
    harness::ParallelSweep sweep(jobs);
    auto t0 = Clock::now();
    rep.sim.fleet = sim.run(sweep);
    rep.wall = secondsSince(t0);
    rep.sim.nodes = rep.sim.fleet->nodeReports;
    return rep;
}

/** One rep per storm seed of the run; all host times scaled alike. */
struct Round
{
    std::vector<Rep> reps;

    double
    sum(double Rep::*field) const
    {
        double s = 0;
        for (const Rep &r : reps)
            s += r.*field;
        return s;
    }

    /** Reference seconds per host second of this round. */
    double
    scale() const
    {
        double n = static_cast<double>(reps.size());
        return HostReference::referenceSeconds /
               std::sqrt(sum(&Rep::chain) / n * (sum(&Rep::copy) / n));
    }

    double scaledWall() const { return sum(&Rep::wall) * scale(); }

    std::uint64_t
    digest() const
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const Rep &r : reps)
            h = (h ^ r.sim.digest()) * 0x100000001b3ULL;
        return h;
    }

    template <typename Fn>
    double
    total(Fn field) const
    {
        double s = 0;
        for (const Rep &r : reps)
            s += static_cast<double>(field(r.sim));
        return s;
    }

    /** Every traced rep's layer times, summed. */
    TraceResult
    trace() const
    {
        TraceResult t;
        for (const Rep &r : reps) {
            if (r.trace)
                t += *r.trace;
        }
        return t;
    }
};

/** The round whose scaled wall is the median (the lower of two). */
const Round &
medianRound(const std::vector<Round> &rounds)
{
    std::vector<const Round *> order;
    for (const Round &r : rounds)
        order.push_back(&r);
    std::sort(order.begin(), order.end(), [](const Round *a, const Round *b) {
        return a->scaledWall() < b->scaledWall();
    });
    return *order[(order.size() - 1) / 2];
}

// ------------------------------------------------------------- output

/**
 * The highest of @p candidates (percentiles) with at least ten of @p n
 * samples beyond it under the nearest-rank rule; 0 when none has.
 */
double
tailPercentile(std::size_t n, std::initializer_list<double> candidates)
{
    for (double p : candidates) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n >= rank + 10)
            return p;
    }
    return 0;
}

/** Median of @p v (the mean of the middle two for an even count). */
double
median(std::vector<double> v)
{
    return quartiles(std::move(v)).median;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        list.push_back({name, value, unit});
    }

    void
    count(const std::string &name, double value)
    {
        add(name, value, "count");
    }

    void
    print(bool correct, std::uint64_t attempted,
          std::uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < list.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", list[i].name.c_str(),
                        list[i].value, list[i].unit);
        }
        std::printf("}}\n");
    }

  private:
    std::vector<Metric> list;
};

/** The simulated results of @p round, pooled over its storms. */
struct Pooled
{
    double goodput = 0, servedFrac = 0, legitP50 = 0;
    std::vector<Cycles> legitTimes, recoveryTimes;

    explicit Pooled(const Round &round)
    {
        double served = round.total(
            [](const SimResult &s) { return s.legitServed(); });
        double arrivals = round.total(
            [](const SimResult &s) { return s.legitArrivals(); });
        double ticks =
            round.total([](const SimResult &s) { return s.endTick(); });
        goodput = served * 1e6 / ticks;
        servedFrac = served / arrivals;
        std::vector<double> fleetP50;
        for (const Rep &r : round.reps) {
            const SimResult &s = r.sim;
            legitTimes.insert(legitTimes.end(), s.legitTimes.begin(),
                              s.legitTimes.end());
            recoveryTimes.insert(recoveryTimes.end(),
                                 s.recoveryTimes.begin(),
                                 s.recoveryTimes.end());
            if (s.fleet)
                fleetP50.push_back(static_cast<double>(s.fleet->legitP50));
        }
        legitP50 = fleetP50.empty()
                       ? static_cast<double>(
                             resilience::percentile(legitTimes, 50))
                       : median(fleetP50);
    }
};

/** The simulated layer counters and tails of @p round. */
void
addSimulatedLayers(Metrics &m, const Round &round, const Pooled &pool)
{
    auto stat = [&round](const char *group, const char *name) {
        double s = 0;
        for (const Rep &r : round.reps)
            s += r.sim.stats.sum(group, name);
        return s;
    };
    auto report = [&round](auto field) {
        return round.total(
            [&field](const SimResult &s) { return s.total(field); });
    };
    auto fleet = [&round](auto field) {
        std::vector<double> v;
        for (const Rep &r : round.reps) {
            if (r.sim.fleet)
                v.push_back(static_cast<double>(field(*r.sim.fleet)));
        }
        return v;
    };
    auto fleetSum = [&fleet](auto field) {
        double s = 0;
        for (double v : fleet(field))
            s += v;
        return s;
    };
    auto fleetMedian = [&fleet](auto field) {
        std::vector<double> v = fleet(field);
        return v.empty() ? 0.0 : median(v);
    };

    m.count("cpu.instructions", stat("core", "instructions"));
    m.add("cpu.mem_stall_cycles", stat("core", "mem_stall_cycles"),
          "cycles");
    m.add("cpu.sync_stall_cycles", stat("core", "sync_stall_cycles"),
          "cycles");
    m.count("mem.l1d_misses", stat("l1d", "misses"));
    m.count("mem.l2_misses", stat("l2", "misses"));
    // Every DRAM access that missed the open row, closed or conflicting.
    m.count("mem.dram_row_misses",
            stat("dram", "row_misses") + stat("dram", "row_conflicts"));
    m.add("mem.bus_wait_cycles", stat("bus", "wait_cycles"), "cycles");
    m.count("monitor.records", stat("monitor", "records"));
    m.add("monitor.busy_cycles", stat("monitor", "busy_cycles"), "cycles");
    m.add("monitor.fifo_stall_cycles", stat("trace_fifo", "stall_cycles"),
          "cycles");
    m.count("monitor.violations", stat("monitor", "violations"));
    m.count("checkpoint.lines_backed_up", stat("ckpt_", "lines_backed_up"));
    m.add("checkpoint.backup_cycles", stat("ckpt_", "backup_cycles"),
          "cycles");
    m.count("checkpoint.rollbacks", stat("ckpt_", "rollbacks"));
    m.count("checkpoint.macro_restores", stat("macro_ckpt", "restores"));
    m.add("checkpoint.macro_restore_cycles",
          stat("macro_ckpt", "restore_cycles"), "cycles");
    m.add("checkpoint.macro_capture_cycles",
          stat("macro_ckpt", "capture_cycles"), "cycles");
    m.count("checkpoint.domain_pages_rewound",
            stat("ckpt_", "domain_pages_rewound"));
    m.count("core.micro_recoveries", stat("recovery", "micro"));
    m.count("core.domain_recoveries", stat("recovery", "domain_rewinds"));
    m.count("core.macro_recoveries", stat("recovery", "macro"));
    m.count("core.rejuv_recoveries", stat("recovery", "rejuvenations"));

    m.count("resilience.sheds",
            report([](const auto &r) { return r.shedTotal(); }));
    m.count("resilience.retries",
            report([](const auto &r) { return r.retries; }));
    m.count("resilience.transitions",
            report([](const auto &r) { return r.transitions; }));
    m.count("resilience.bp_engagements",
            report([](const auto &r) { return r.bpEngagements; }));
    m.count("adversary.moves",
            report([](const auto &r) { return r.adversaryMoves; }));
    m.count("adversary.reinfections",
            report([](const auto &r) { return r.reinfections; }));

    m.count("cluster.pool_queued_grants",
            fleetSum([](const auto &f) { return f.poolQueuedGrants; }));
    m.add("cluster.pool_wait_p99_kcycles",
          fleetMedian([](const auto &f) { return f.poolWaitP99; }) / 1e3,
          "kcycles");
    m.count("cluster.doorbells",
            fleetSum([](const auto &f) { return f.doorbells; }));
    m.add("cluster.link_throttle_kcycles",
          fleetSum([](const auto &f) { return f.linkThrottleDelay; }) / 1e3,
          "kcycles");
    m.add("cluster.recovery_p99_kcycles",
          fleetMedian([](const auto &f) { return f.recoveryP99; }) / 1e3,
          "kcycles");

    m.add("sim.goodput_per_mcycle", pool.goodput, "1/Mcycle");
    m.add("sim.legit_served_frac", pool.servedFrac, "frac");
    // Tails sit at the highest percentile with at least ten samples
    // beyond it (0 when none has); ClusterSim keeps its samples.
    std::size_t legitN = pool.legitTimes.size();
    double legitPct = tailPercentile(legitN, {99.9, 99, 90, 50});
    std::size_t recN = pool.recoveryTimes.size();
    double recPct = tailPercentile(recN, {99.9, 99, 90, 50});
    auto tail = [](const std::vector<Cycles> &v, double pct) {
        return pct > 0 ? static_cast<double>(resilience::percentile(v, pct))
                       : 0.0;
    };
    m.add("sim.legit_tail_kcycles", tail(pool.legitTimes, legitPct) / 1e3,
          "kcycles");
    m.add("sim.legit_tail_pct", legitPct, "%");
    m.count("sim.legit_samples", static_cast<double>(legitN));
    m.add("sim.recovery_tail_kcycles",
          tail(pool.recoveryTimes, recPct) / 1e3, "kcycles");
    m.add("sim.recovery_tail_pct", recPct, "%");
    m.count("sim.recovery_samples", static_cast<double>(recN));
}

/** Peak resident set of the process, less the host reference's. */
double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    double bytes = static_cast<double>(ru.ru_maxrss) * 1024.0; // KiB
    return (bytes - static_cast<double>(HostReference::residentBytes)) /
           (1024.0 * 1024.0);
}

/** Records failed self-checks; any failure makes the run incorrect. */
struct Checks
{
    bool ok = true;

    void
    require(bool cond, const char *what)
    {
        if (!cond) {
            ok = false;
            std::printf("CHECK FAILED: %s\n", what);
        }
    }
};

/**
 * INDRA_PERF_SYNTHETIC_SLOWDOWN=<fraction> (at most 0.9): after each
 * rep, busy-spin until its set-up and storm rates have dropped by that
 * fraction, counting the spin in, and after the first round hold
 * enough touched memory to raise the peak resident set by the share
 * that fraction implies. It perturbs the host only, never the
 * simulation, and exists so the gate's self-test can prove that a
 * regression of each host metric fails it.
 */
double
syntheticSlowdown()
{
    const char *env = std::getenv("INDRA_PERF_SYNTHETIC_SLOWDOWN");
    double f = env ? std::atof(env) : 0.0;
    return std::clamp(f, 0.0, 0.9);
}

void
spinFor(double seconds)
{
    auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    while (Clock::now() < until) {
    }
}

int
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perf_kernel: %s\nusage: perf_kernel --workload NAME "
                 "[--seed N] [--seconds S] [--trace] [--smoke]\n"
                 "workloads:",
                 msg.c_str());
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto start = Clock::now();
    setLogVerbosity(0);

    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        char *end = nullptr;
        if (arg == "--workload" && i + 1 < argc) {
            name = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            const char *s = argv[++i];
            errno = 0;
            seed = std::strtoull(s, &end, 10);
            if (!*s || *end || *s == '-' || errno || seed > (1ULL << 48))
                return usage("--seed takes an integer in [0, 2^48]");
        } else if (arg == "--seconds" && i + 1 < argc) {
            const char *s = argv[++i];
            seconds = std::strtod(s, &end);
            if (!*s || *end || !(seconds > 0 && seconds <= 3600))
                return usage("--seconds takes a number in (0, 3600]");
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            return usage("unknown argument: " + arg);
        }
    }
    std::optional<Workload> found;
    for (const Workload &w : workloads()) {
        if (w.name == name)
            found = w;
    }
    if (!found)
        return usage("unknown workload '" + name + "'");
    Workload &w = *found;
    if (smoke) {
        // A quarter of the load and of the storms: every path still
        // runs, rounds are short.
        w.legitRequests = (w.legitRequests + 3) / 4;
        w.adversaryBudget = (w.adversaryBudget + 3) / 4;
        w.storms /= 4;
    }

    std::printf("perf_kernel %s seed %llu%s\n", w.name.c_str(),
                static_cast<unsigned long long>(seed),
                trace ? " traced" : "");

    // Rounds of the identical storms until the time is spent. A traced
    // run alternates untraced and traced rounds (for the cluster: its
    // sweep threads, then one) so both sides see the same host.
    std::vector<Round> plain, traced;
    auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    Clock::duration longest{};
    double slowdown = syntheticSlowdown();
    std::unique_ptr<char[]> bloat;
    HostReference reference;
    // A smoke run checks the output, not the host: one round will do.
    std::size_t minRounds = smoke ? 1 : 3;
    for (std::size_t i = 0;; ++i) {
        bool enough = trace ? !plain.empty() && !traced.empty()
                            : plain.size() >= minRounds;
        if (enough && Clock::now() + longest > start + budget)
            break;
        auto r0 = Clock::now();
        bool tracedRound = trace && i % 2 == 1;
        Round round;
        for (std::uint32_t j = 0; j < w.storms; ++j) {
            std::uint64_t storm = seed * w.storms + j;
            auto [chain, copy] = reference.time();
            Rep r = w.cluster
                ? runCluster(w, storm, tracedRound ? 1 : clusterJobs)
                : runNode(w, storm, tracedRound);
            r.chain = chain;
            r.copy = copy;
            if (slowdown > 0) {
                double stretch = 1 / (1 - slowdown);
                spinFor((r.setup + r.wall) * (stretch - 1));
                r.setup *= stretch;
                r.wall *= stretch;
            }
            round.reps.push_back(std::move(r));
        }
        (tracedRound ? traced : plain).push_back(std::move(round));
        longest = std::max(longest, Clock::now() - r0);
        if (slowdown > 0 && !bloat) {
            // Held to the end, so that later rounds peak on top of it.
            std::size_t bytes = static_cast<std::size_t>(
                peakRssMb() * (1 / (1 - slowdown) - 1) * 1024 * 1024);
            bloat = std::make_unique<char[]>(bytes);
            volatile char *page = bloat.get();
            for (std::size_t k = 0; k < bytes; k += 4096)
                page[k] = 1;
        }
    }

    // ------------------------------------------------ self-checks
    Checks check;
    const Round &first = plain.front();
    std::uint64_t dig = first.digest();
    bool same = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const std::vector<Round> *set : {&plain, &traced}) {
        for (const Round &round : *set) {
            same = same && round.digest() == dig;
            for (const Rep &r : round.reps) {
                attempted += r.sim.arrivals();
                failed += r.sim.unaccounted() + r.sim.dormantAfterRewind();
            }
        }
    }
    check.require(same, trace ? "simulated results identical across "
                                "rounds, traced and untraced"
                              : "simulated results identical across rounds");
    bool accounted = true, healed = true, clean = true;
    for (const Rep &r : first.reps) {
        accounted = accounted && r.sim.unaccounted() == 0;
        healed = healed && r.sim.dormantAfterRewind() == 0;
        if (w.name == "clean_stream") {
            const resilience::StormReport &s = r.sim.nodes.front();
            clean = clean && s.shedTotal() == 0 && s.legitGaveUp == 0 &&
                    s.legitServed == s.legitArrivals;
        }
    }
    check.require(accounted, "legitServed + legitFailed + legitGaveUp == "
                             "legitArrivals on every node");
    check.require(healed, "no dormant damage survives a domain rewind");
    check.require(clean, "clean_stream sheds nothing and serves every "
                         "request (below saturation)");

    Pooled pool(first);
    double executed =
        first.total([](const SimResult &s) { return s.executed(); });
    double instructions =
        first.total([](const SimResult &s) { return s.instructions(); });
    std::printf("sim: %u storms, %.0f arrivals, %.0f executed, legit "
                "served %.0f of %.0f, goodput %.6f/Mcycle, legit p50 "
                "%.3f kcycles\n",
                w.storms,
                first.total([](const SimResult &s) { return s.arrivals(); }),
                executed,
                first.total([](const SimResult &s) { return s.legitServed(); }),
                first.total(
                    [](const SimResult &s) { return s.legitArrivals(); }),
                pool.goodput, pool.legitP50 / 1e3);

    // Host times: medians over rounds of reference-scaled times.
    auto report = [](const char *what, const std::vector<Round> &rounds) {
        std::vector<double> raw, scaled, scales;
        for (const Round &r : rounds) {
            raw.push_back(r.sum(&Rep::wall));
            scaled.push_back(r.scaledWall());
            scales.push_back(r.scale());
        }
        Quartiles q = quartiles(scaled);
        std::fprintf(stderr,
                     "host: %zu %s rounds, scaled wall q1/median/q3 "
                     "%.4f/%.4f/%.4f s, raw median %.4f s, scale "
                     "min/max %.4f/%.4f\n",
                     rounds.size(), what, q.q1, q.median, q.q3,
                     median(raw),
                     *std::min_element(scales.begin(), scales.end()),
                     *std::max_element(scales.begin(), scales.end()));
        return q.median;
    };
    double wall = report("untraced", plain);
    std::vector<double> setups;
    for (const std::vector<Round> *set : {&plain, &traced}) {
        for (const Round &round : *set) {
            for (const Rep &r : round.reps)
                setups.push_back(r.setup * round.scale());
        }
    }
    Quartiles setup = quartiles(setups);
    std::fprintf(stderr, "host: %zu setups, scaled q1/median/q3 "
                         "%.5f/%.5f/%.5f s\n",
                 setups.size(), setup.q1, setup.median, setup.q3);

    Metrics m;
    if (!trace) {
        m.add("sim_req_per_s", executed / wall, "1/s");
        m.add("sim_minstr_per_s", instructions / 1e6 / wall, "Minstr/s");
        m.add("setup_s", setup.median, "s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        m.add("legit_p50_kcycles", pool.legitP50 / 1e3, "kcycles");
    } else {
        // Layer times come from the median traced round, whose parts
        // add up; the cluster's traced rounds ran on one sweep thread.
        report(w.cluster ? "one-thread" : "traced", traced);
        const Round &mid = medianRound(traced);
        double twall = mid.scaledWall();
        double scale = mid.scale();
        TraceResult t = mid.trace();
        bool spans = !w.cluster;

        m.add("checkpoint.store_hook_s", t.store.seconds * scale, "s");
        m.count("checkpoint.store_hook_calls", t.store.calls);
        m.add("checkpoint.load_hook_s", t.load.seconds * scale, "s");
        m.count("checkpoint.load_hook_calls", t.load.calls);
        m.add("monitor.submit_s", t.submit.seconds * scale, "s");
        m.count("monitor.submit_calls", t.submit.calls);
        m.count("monitor.drain_calls", t.drains);
        m.add("os.syscall_s", t.syscall.seconds * scale, "s");
        m.count("os.syscall_calls", t.syscall.calls);
        for (int c = 0; c < stepClassCount; ++c)
            m.add(stepClassMetric[c], t.selfSeconds[c] * scale, "s");
        m.count("core.steps", t.steps);
        m.add("core.step_total_s", t.stepTotal * scale, "s");
        m.add("trace.step_coverage", spans ? t.stepTotal / t.wall : 0,
              "frac");
        m.add("trace.overhead_frac", spans ? twall / wall - 1 : 0, "frac");
        double fleetRounds = first.total([](const SimResult &s) {
            return s.fleet ? s.fleet->rounds : 0;
        });
        m.add("cluster.round_s", w.cluster ? wall / fleetRounds : 0, "s");
        m.add("cluster.jobs_speedup", w.cluster ? twall / wall : 0, "x");

        bool parts = true, covered = true, samples = true;
        for (const Round &round : traced) {
            for (const Rep &r : round.reps) {
                if (!r.trace)
                    continue; // the cluster: no spans
                const TraceResult &tr = *r.trace;
                double parts_s = tr.selfTotal() + tr.childSeconds();
                parts = parts &&
                        std::abs(parts_s - tr.stepTotal) <= 0.01 * tr.stepTotal;
                covered = covered && tr.stepTotal >= 0.95 * tr.wall;
                // The outside-in samples must reproduce the report's
                // own accounting exactly.
                const resilience::StormReport &s = r.sim.nodes.front();
                const SimResult &sim = r.sim;
                samples =
                    samples && sim.legitTimes.size() == s.legitServed &&
                    resilience::percentile(sim.legitTimes, 50) ==
                        s.legitP50 &&
                    resilience::percentile(sim.legitTimes, 99) ==
                        s.legitP99 &&
                    resilience::percentile(sim.recoveryTimes, 99) ==
                        s.recoveryP99;
            }
        }
        check.require(parts, "step self times plus hook times equal the "
                             "step total within 1%");
        check.require(covered, "steps cover at least 95% of traced wall "
                               "time");
        check.require(samples, "step events reproduce the report's "
                               "percentiles");
        addSimulatedLayers(m, first, pool);
    }

    std::printf("digest %016llx\n", static_cast<unsigned long long>(dig));
    m.print(check.ok, attempted, failed);
    return check.ok ? 0 : 1;
}
