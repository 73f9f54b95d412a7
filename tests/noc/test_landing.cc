/**
 * @file
 * Landing: a link bound to a router hands flits and credits to it at
 * send time, stamped with their arrival cycle. These tests pin the
 * hop timing that must not depend on which of sender and receiver
 * ticks first, the pending-credit wake state, and the two guards
 * (due-queue overflow, mixed link latencies).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "noc/network.hh"

using namespace ocor;

namespace
{

/** VA and switch-traversal cycles of a packet's head at one router. */
struct HopTimes
{
    Cycle va = 0;
    Cycle st = 0;
};

struct LandingCase
{
    const char *name;
    unsigned linkLatency;
    unsigned routerStages;
};

/**
 * Print a case by its name. Without this gtest prints the struct's raw
 * bytes, the name pointer among them, and the listed test names would
 * change with every process's load address.
 */
void
PrintTo(const LandingCase &lc, std::ostream *os)
{
    *os << lc.name;
}

class LandingTiming : public ::testing::TestWithParam<LandingCase>
{};

/**
 * Send one one-flit packet across a 1x3 mesh and return its head's
 * hop times by router, with the cycle it entered the mesh.
 */
std::map<NodeId, HopTimes>
traceHops(const LandingCase &lc, NodeId src, NodeId dst, Cycle &enter)
{
    NocParams params;
    params.linkLatency = lc.linkLatency;
    params.routerStages = lc.routerStages;
    OcorConfig ocor;
    Network net(MeshShape{3, 1}, params, ocor);
    TraceConfig tc;
    tc.categories = traceCatBit(TraceCat::Noc);
    Tracer tracer(tc);
    net.setTracer(&tracer);
    bool delivered = false;
    net.setNodeSink(dst, [&](const PacketPtr &, Cycle) {
        delivered = true;
    });

    auto pkt = makePacket(MsgType::GetS, src, dst, 0x80);
    net.send(pkt, 0);
    for (Cycle c = 0; c < 200 && !(delivered && net.idle()); ++c)
        net.tick(c);
    EXPECT_TRUE(delivered);
    enter = pkt->networkEnter;

    std::map<NodeId, HopTimes> hops;
    for (const TraceRecord &r : tracer.snapshot()) {
        if (r.pkt != pkt->id)
            continue;
        if (r.ev == TraceEv::VcAlloc)
            hops[r.node].va = r.cycle;
        else if (r.ev == TraceEv::SaGrant)
            hops[r.node].st = r.cycle;
    }
    return hops;
}

} // namespace

TEST_P(LandingTiming, HopTimingIndependentOfTickOrder)
{
    // Routers tick in node order, so eastbound (0 -> 2) every router
    // hop has its sender tick before its receiver, westbound (2 -> 0)
    // after it. Both must see VA at arrival + 1 and traversal at
    // arrival + routerStages on every router.
    const LandingCase lc = GetParam();
    const std::vector<NodeId> east{0, 1, 2};
    const std::vector<NodeId> west{2, 1, 0};
    std::vector<std::vector<Cycle>> offsets;
    for (const auto &path : {east, west}) {
        Cycle enter = 0;
        auto hops = traceHops(lc, path.front(), path.back(), enter);
        ASSERT_EQ(hops.size(), path.size());
        Cycle sent = enter; // the NI puts the head on the wire here
        std::vector<Cycle> off;
        for (NodeId n : path) {
            const Cycle arrival = sent + lc.linkLatency;
            EXPECT_EQ(hops[n].va, arrival + 1)
                << lc.name << " node " << n;
            EXPECT_EQ(hops[n].st, arrival + lc.routerStages)
                << lc.name << " node " << n;
            off.push_back(hops[n].va - enter);
            off.push_back(hops[n].st - enter);
            sent = hops[n].st;
        }
        offsets.push_back(off);
    }
    EXPECT_EQ(offsets[0], offsets[1]) << lc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Links, LandingTiming,
    ::testing::Values(LandingCase{"lat1", 1, 2},
                      LandingCase{"lat2", 2, 2},
                      LandingCase{"lat1_stages3", 1, 3}),
    [](const auto &info) { return std::string(info.param.name); });

namespace
{

/** One router driven by hand: flits land from the west and leave
 * east, whose credits land in the router. */
struct LandingRig
{
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    std::unique_ptr<Router> router;
    Link intoWest;
    Link outOfEast;

    LandingRig()
    {
        router = std::make_unique<Router>(0, mesh, params, ocor);
        router->attach(PortEast, nullptr, &outOfEast);
        router->attach(PortWest, &intoWest, nullptr);
    }

    void
    sendHead(Cycle now)
    {
        Flit f;
        f.pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
        f.type = FlitType::HeadTail;
        intoWest.sendFlit(std::move(f), now);
    }
};

} // namespace

TEST(Landing, LandedFlitIsBufferedOnlyOnceArrived)
{
    LandingRig rig;
    rig.sendHead(0);
    // Held by the router at once, but still on the wire in cycle 0.
    EXPECT_TRUE(rig.router->busy());
    EXPECT_EQ(rig.router->occupancy(0), 0u);
    EXPECT_EQ(rig.router->occupancy(1), 1u);
    EXPECT_TRUE(rig.intoWest.idle());
}

TEST(Landing, PendingCreditKeepsRouterBusy)
{
    LandingRig rig;
    rig.sendHead(0);
    Cycle c = 1;
    std::optional<Flit> out;
    for (; c < 20 && !out; ++c) {
        rig.router->tick(c);
        out = rig.outOfEast.takeFlit(c);
    }
    ASSERT_TRUE(out.has_value());
    const Cycle took = c - 1;
    EXPECT_EQ(rig.router->occupancy(took), 0u);
    EXPECT_FALSE(rig.router->busy()); // the east VC's credit is out

    rig.outOfEast.sendCredit(out->vc, took);
    EXPECT_TRUE(rig.router->busy()) << "a pending credit is work";
    EXPECT_TRUE(rig.outOfEast.idle()) << "it waits in the router";
    rig.router->tick(took + 1);
    EXPECT_FALSE(rig.router->busy());
}

TEST(Landing, NetworkNotIdleUntilPendingCreditsDrain)
{
    // A one-flit packet across a 1x2 mesh: in the cycle the sink NI
    // ejects it, the credit it returns to router 1 is the only work
    // left, held in that router's due queue rather than on a link.
    NocParams params;
    OcorConfig ocor;
    Network net(MeshShape{2, 1}, params, ocor);
    Cycle got = neverCycle;
    net.setNodeSink(1,
                    [&](const PacketPtr &, Cycle now) { got = now; });
    net.send(makePacket(MsgType::GetS, 0, 1, 0x80), 0);
    Cycle c = 0;
    for (; c < 50 && got == neverCycle; ++c)
        net.tick(c);
    ASSERT_NE(got, neverCycle);

    EXPECT_TRUE(net.router(1).busy());
    EXPECT_EQ(net.router(1).occupancy(got), 0u);
    for (unsigned l = 0; l < net.numLinks(); ++l)
        EXPECT_TRUE(net.link(l).idle()) << "link " << l;
    EXPECT_FALSE(net.idle());
    EXPECT_EQ(net.nextWake(got), got + 1);

    net.tick(got + 1);
    EXPECT_FALSE(net.router(1).busy());
    EXPECT_TRUE(net.idle());
}

TEST(LandingDeath, DueQueueOverflowPanics)
{
    LandingRig rig;
    // More credits in flight than NumPorts x numVcs x vcDepth can ever
    // owe this router.
    const unsigned bound =
        NumPorts * rig.params.numVcs * rig.params.vcDepth;
    EXPECT_DEATH(
        {
            for (unsigned k = 0; k <= 2 * bound; ++k)
                rig.outOfEast.sendCredit(0, 0);
        },
        "credits due");
}

TEST(LandingDeath, MixedLinkLatenciesPanic)
{
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    Router router(0, mesh, params, ocor);
    Link fast(1), slow(2);
    router.attach(PortEast, &fast, nullptr);
    EXPECT_DEATH(router.attach(PortWest, &slow, nullptr), "latency");
}
