/** @file Tests for CR3/pid-tagged co-located services sharing one
 * resurrectee core, and for open-loop arrival timing. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/node_handle.hh"
#include "core/system.hh"
#include "sim/logging.hh"
#include "test_util.hh"

using namespace indra;
using core::IndraSystem;
using net::AttackKind;
using net::RequestStatus;

namespace
{

SystemConfig
coConfig()
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    return cfg;
}

net::DaemonProfile
shortDaemon(const std::string &name, std::uint64_t instr = 12000)
{
    net::DaemonProfile p = net::daemonByName(name);
    p.instrPerRequest = instr;
    return p;
}

/**
 * Serve @p script open-loop through a NodeHandle: request i arrives
 * at @p first + i * @p gap, benign requests marked legit. The handle
 * stamps seqs in execution order.
 */
std::vector<core::NodeEvent>
runArrivals(IndraSystem &sys, std::size_t slot,
            const std::vector<net::ServiceRequest> &script, Cycles gap,
            Tick first)
{
    resilience::StormPlan plan;
    plan.legitRequests = 0;
    plan.deadline = 0;
    core::NodeHandle node(sys, slot, plan);
    node.collectEvents(true);
    Tick arrival = first;
    for (const net::ServiceRequest &req : script) {
        node.inject(arrival, req, req.attack == AttackKind::None);
        arrival += gap;
    }
    node.advanceTo(maxTick);
    return node.drainEvents();
}

net::ServiceRequest
request(std::uint64_t seq, AttackKind kind = AttackKind::None)
{
    net::ServiceRequest r;
    r.seq = seq;
    r.attack = kind;
    return r;
}

std::map<Vpn, std::vector<std::uint8_t>>
imageOf(IndraSystem &sys, Pid pid)
{
    std::map<Vpn, std::vector<std::uint8_t>> image;
    os::Process &proc = sys.kernel().process(pid);
    for (Vpn vpn : proc.space->mappedPages())
        image[vpn] = sys.physMem().snapshotFrame(
            proc.space->pageInfo(vpn).pfn);
    return image;
}

} // anonymous namespace

TEST(Colocation, TwoServicesTimeShareOneCore)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t dns = sys.deployCoService(slot, shortDaemon("bind"));

    // Interleave requests across the two processes on one core.
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
        EXPECT_EQ(sys.processRequest(slot, request(seq)).status,
                  RequestStatus::Served);
        EXPECT_EQ(
            sys.processCoRequest(slot, dns, request(seq)).status,
            RequestStatus::Served);
    }
    // The single monitor raised no false alarm on either process.
    EXPECT_EQ(sys.slot(slot).monitor->violationsDetected(), 0u);
}

TEST(Colocation, AttackOnOneProcessLeavesTheOtherIntact)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t dns = sys.deployCoService(slot, shortDaemon("bind"));
    Pid web_pid = sys.slot(slot).pid;

    sys.processRequest(slot, request(1));
    sys.processCoRequest(slot, dns, request(1));

    auto web_before = imageOf(sys, web_pid);
    auto dns_out =
        sys.processCoRequest(slot, dns,
                             request(2, AttackKind::StackSmash));
    EXPECT_EQ(dns_out.status, RequestStatus::DetectedRecovered);

    // The web process's memory never changed; the DNS process's
    // memory is byte-exactly revived.
    EXPECT_EQ(web_before, imageOf(sys, web_pid));
    sys.slot(slot).coServices[dns]->policy->drainRollback(0);
    EXPECT_EQ(sys.processRequest(slot, request(2)).status,
              RequestStatus::Served);
    EXPECT_EQ(sys.processCoRequest(slot, dns, request(3)).status,
              RequestStatus::Served);
}

TEST(Colocation, MonitorMetadataIsPerProcess)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t co = sys.deployCoService(slot, shortDaemon("imap"));
    Pid co_pid = sys.slot(slot).coServices[co]->pid;

    // A record claiming the co-process executed from the MAIN
    // process's code page must still be validated per-pid — both
    // programs share the virtual code layout, so this passes; what
    // must fail is a page neither registered.
    cpu::TraceRecord rec;
    rec.kind = cpu::TraceKind::CodeOrigin;
    rec.pid = co_pid;
    rec.target = 0x7ffe0000;  // stack page
    sys.slot(slot).monitor->submit(rec, 0);
    EXPECT_TRUE(sys.slot(slot).monitor->pendingDetection().has_value());
}

TEST(Colocation, ContextSwitchChargedBetweenProcesses)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t co = sys.deployCoService(slot, shortDaemon("bind"));

    sys.processRequest(slot, request(1));
    Tick t0 = sys.slot(slot).core->curTick();
    // Switching to the co-process must advance time before its
    // request even starts.
    auto out = sys.processCoRequest(slot, co, request(1));
    EXPECT_GT(out.startTick, t0);
}

TEST(OpenLoop, ResponseIncludesQueueingBehindRecovery)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 20000));

    // Closed-loop service time of a benign request, for sizing.
    auto warm = sys.runScript(net::ClientScript::benign(2), slot);
    Cycles service = warm[1].responseTime();

    // Arrivals at ~80% utilization with a DoS in the middle: the
    // benign request right after the attack queues behind recovery.
    auto script = net::ClientScript::benign(6);
    script[2].attack = AttackKind::DosFlood;
    auto events = runArrivals(sys, slot, script, (service * 5) / 4,
                              sys.slot(slot).core->curTick());
    ASSERT_EQ(events.size(), script.size());
    for (const auto &ev : events) {
        if (ev.legit) {
            EXPECT_GE(ev.responseCycles, 1u);
        }
        // The run is causally ordered and nothing was lost.
        EXPECT_NE(ev.status, RequestStatus::Lost);
    }
}

TEST(OpenLoop, SlowArrivalsMeanNoQueueing)
{
    setLogVerbosity(0);
    IndraSystem sys(core::NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 20000));
    auto warm = sys.runScript(net::ClientScript::benign(2), slot);
    Cycles service = warm[1].responseTime();

    auto script = net::ClientScript::benign(4);
    auto events = runArrivals(sys, slot, script, service * 3,
                              sys.slot(slot).core->curTick());
    ASSERT_EQ(events.size(), script.size());
    // With arrivals far apart, each response is just its own service
    // time (within the noise of request-length variation).
    for (const auto &ev : events)
        EXPECT_LT(ev.responseCycles, service * 2);
}
