/**
 * @file
 * White-box tests for the 2-stage VC router: pipeline timing, credit
 * flow, wormhole integrity and priority-based allocation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/router.hh"

using namespace ocor;

namespace
{

/** A 1x2 test rig: one router under test at node 0, driven by hand
 * through its links. */
struct RouterRig
{
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    std::unique_ptr<Router> router;
    Link intoWest;    // we are upstream on the router's west port
    Link intoEast;    // flits from the east neighbor (unused)
    Link outOfEast;   // router sends east through this
    Link intoLocal;   // NI side
    Link outOfLocal;

    explicit RouterRig(bool ocor_on = false)
    {
        ocor.enabled = ocor_on;
        router = std::make_unique<Router>(0, mesh, params, ocor);
        // Node 0 of a 2x1 mesh has East and Local ports.
        router->attach(PortEast, &intoEast, &outOfEast);
        router->attach(PortLocal, &intoLocal, &outOfLocal);
        router->attach(PortWest, &intoWest, nullptr);
    }

    /** Downstream consume on the east link: take + return credit. */
    std::optional<Flit>
    takeEast(Cycle now)
    {
        auto f = outOfEast.takeFlit(now);
        if (f)
            outOfEast.sendCredit(f->vc, now);
        return f;
    }

    void
    sendFlit(Link &link, const PacketPtr &pkt, unsigned index,
             unsigned vc, Cycle now)
    {
        Flit f;
        f.pkt = pkt;
        f.index = index;
        f.type = flitTypeFor(index, pkt->numFlits);
        f.vc = vc;
        link.sendFlit(f, now);
    }
};

} // namespace

TEST(Router, SingleFlitTraversesWithPipelineLatency)
{
    RouterRig rig;
    // East-bound single-flit packet enters via the west port.
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    rig.sendFlit(rig.intoWest, pkt, 0, 0, 0); // arrives at cycle 1

    Cycle out_cycle = 0;
    for (Cycle c = 1; c <= 10 && out_cycle == 0; ++c) {
        rig.router->tick(c);
        if (rig.outOfEast.takeFlit(c + 1))
            out_cycle = c + 1;
    }
    // Arrival 1, SA/ST eligible at 3 (2-stage pipe), link +1 = 4.
    EXPECT_EQ(out_cycle, 4u);
}

TEST(Router, LocalDeliveryGoesToLocalPort)
{
    RouterRig rig;
    auto pkt = makePacket(MsgType::GetS, 1, 0, 0x80); // dst == 0
    rig.sendFlit(rig.intoWest, pkt, 0, 0, 0);
    bool delivered = false;
    for (Cycle c = 1; c <= 10; ++c) {
        rig.router->tick(c);
        if (rig.outOfLocal.takeFlit(c + 1))
            delivered = true;
    }
    EXPECT_TRUE(delivered);
}

TEST(Router, CreditReturnedWhenFlitLeaves)
{
    RouterRig rig;
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    rig.sendFlit(rig.intoWest, pkt, 0, 2, 0);
    bool credit_seen = false;
    for (Cycle c = 1; c <= 10; ++c) {
        rig.router->tick(c);
        for (unsigned vc : rig.intoWest.takeCredits(c))
            if (vc == 2)
                credit_seen = true;
    }
    EXPECT_TRUE(credit_seen);
}

TEST(Router, WormholeKeepsPacketContiguousPerVc)
{
    RouterRig rig;
    // An 8-flit data packet: flits must exit in order.
    auto pkt = makePacket(MsgType::Data, 0, 1, 0x100);
    unsigned sent = 0;
    std::vector<unsigned> exits;
    for (Cycle c = 0; c <= 40; ++c) {
        // Respect the 4-deep VC: trickle flits in.
        if (sent < pkt->numFlits && c % 2 == 0) {
            rig.sendFlit(rig.intoWest, pkt, sent, 0, c);
            ++sent;
        }
        rig.router->tick(c);
        if (auto f = rig.takeEast(c))
            exits.push_back(f->index);
    }
    // Drain the remainder.
    for (Cycle c = 41; c <= 60; ++c) {
        rig.router->tick(c);
        if (auto f = rig.takeEast(c))
            exits.push_back(f->index);
    }
    ASSERT_EQ(exits.size(), 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(exits[i], i);
}

TEST(Router, BackpressureLimitsInFlightFlits)
{
    RouterRig rig;
    // Fill the east output: downstream never returns credits, so at
    // most vcDepth flits per VC may be sent onto the east link.
    auto pkt = makePacket(MsgType::Data, 0, 1, 0x100);
    // Deliver all 8 flits over time into a 4-deep VC, respecting
    // upstream credit flow: the router must stall once downstream
    // credits (4) are consumed because we never return any.
    unsigned sent = 0;
    unsigned exited = 0;
    unsigned upstream_credits = rig.params.vcDepth;
    for (Cycle c = 0; c <= 100; ++c) {
        upstream_credits +=
            static_cast<unsigned>(rig.intoWest.takeCredits(c).size());
        if (sent < 8 && upstream_credits > 0) {
            rig.sendFlit(rig.intoWest, pkt, sent, 0, c);
            ++sent;
            --upstream_credits;
        }
        rig.router->tick(c);
        if (rig.outOfEast.takeFlit(c))
            ++exited;
    }
    EXPECT_EQ(exited, rig.params.vcDepth)
        << "without credits only vcDepth flits may traverse";
}

TEST(Router, OcorPrioritizesLockPacketInSwitchAllocation)
{
    // Two single-flit packets contending for the east output from
    // different input ports in the same cycle: under OCOR the lock
    // packet must win; the data packet follows one cycle later.
    RouterRig rig(/*ocor_on=*/true);

    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);
    auto lock = makePacket(MsgType::LockTry, 0, 1, 0x200);
    lock->priority = makePriority(rig.ocor, PriorityClass::LockTry,
                                  1, 0);

    rig.sendFlit(rig.intoWest, data, 0, 0, 0);  // arrives cycle 1
    rig.sendFlit(rig.intoLocal, lock, 0, 0, 0); // arrives cycle 1

    std::vector<MsgType> order;
    for (Cycle c = 1; c <= 12; ++c) {
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c))
            order.push_back(f->pkt->type);
    }
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], MsgType::LockTry);
    EXPECT_EQ(order[1], MsgType::GetS);
}

TEST(Router, BaselineRoundRobinIgnoresPriority)
{
    // Same contention as above with OCOR disabled: the round-robin
    // pointer, not the priority field, decides. Run both phases and
    // simply verify both packets traverse (no starvation).
    RouterRig rig(/*ocor_on=*/false);
    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);
    auto lock = makePacket(MsgType::LockTry, 0, 1, 0x200);
    OcorConfig on;
    on.enabled = true;
    lock->priority = makePriority(on, PriorityClass::LockTry, 1, 0);

    rig.sendFlit(rig.intoWest, data, 0, 0, 0);
    rig.sendFlit(rig.intoLocal, lock, 0, 0, 0);
    unsigned delivered = 0;
    for (Cycle c = 1; c <= 12; ++c) {
        rig.router->tick(c);
        if (rig.outOfEast.takeFlit(c))
            ++delivered;
    }
    EXPECT_EQ(delivered, 2u);
}

TEST(Router, OccupancyTracksBufferedFlits)
{
    RouterRig rig;
    EXPECT_EQ(rig.router->occupancy(0), 0u);
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    rig.sendFlit(rig.intoWest, pkt, 0, 0, 0);
    rig.router->tick(1); // flit delivered into the buffer
    EXPECT_EQ(rig.router->occupancy(1), 1u);
    for (Cycle c = 2; c <= 6; ++c)
        rig.router->tick(c);
    EXPECT_EQ(rig.router->occupancy(6), 0u);
}

TEST(Router, StatsCountRoutedFlits)
{
    RouterRig rig;
    auto pkt = makePacket(MsgType::LockTry, 0, 1, 0x80);
    rig.sendFlit(rig.intoWest, pkt, 0, 0, 0);
    for (Cycle c = 1; c <= 8; ++c) {
        rig.router->tick(c);
        (void)rig.outOfEast.takeFlit(c);
    }
    EXPECT_EQ(rig.router->stats().flitsRouted, 1u);
    EXPECT_EQ(rig.router->stats().lockFlitsRouted, 1u);
    EXPECT_GE(rig.router->stats().vaGrants, 1u);
}
