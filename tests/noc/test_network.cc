/**
 * @file
 * Integration tests for the full mesh network: delivery, ordering,
 * latency accounting, and drain.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "noc/network.hh"

using namespace ocor;

namespace
{

struct NetRig
{
    MeshShape mesh{4, 4};
    NocParams params;
    OcorConfig ocor;
    std::unique_ptr<Network> net;
    std::vector<std::pair<NodeId, PacketPtr>> delivered;

    explicit NetRig(bool ocor_on = false)
    {
        ocor.enabled = ocor_on;
        net = std::make_unique<Network>(mesh, params, ocor);
        for (NodeId n = 0; n < mesh.numNodes(); ++n)
            net->setNodeSink(n,
                [this, n](const PacketPtr &pkt, Cycle) {
                    delivered.emplace_back(n, pkt);
                });
    }

    void
    runUntilIdle(Cycle start, Cycle max_cycles = 10000)
    {
        for (Cycle c = start; c < start + max_cycles; ++c) {
            net->tick(c);
            if (net->idle())
                return;
        }
        FAIL() << "network did not drain";
    }
};

} // namespace

TEST(Network, SingleControlPacketDelivered)
{
    NetRig rig;
    auto pkt = makePacket(MsgType::GetS, 0, 15, 0x80);
    rig.net->send(pkt, 0);
    rig.runUntilIdle(0);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.delivered[0].first, 15u);
    EXPECT_EQ(rig.delivered[0].second->id, pkt->id);
}

TEST(Network, LatencyScalesWithDistance)
{
    NetRig rig;
    auto near = makePacket(MsgType::GetS, 0, 1, 0x80);
    rig.net->send(near, 0);
    rig.runUntilIdle(0);
    Cycle near_lat = near->ejectCycle - near->injectCycle;

    rig.delivered.clear();
    auto far = makePacket(MsgType::GetS, 0, 15, 0x80);
    rig.net->send(far, 1000);
    rig.runUntilIdle(1000);
    Cycle far_lat = far->ejectCycle - far->injectCycle;

    EXPECT_GT(far_lat, near_lat);
    // 4x4 corner-to-corner: 6 hops; each hop >= 3 cycles.
    EXPECT_GE(far_lat, 18u);
}

TEST(Network, UncontendedLatencyMatchesEmptyMeshTransit)
{
    // Time single packets across an empty 4x4 mesh for every link
    // latency and pipeline depth in {1, 2, 3}. Multi-flit packets
    // serialize at one flit per cycle only while the credit loop
    // keeps up (vcDepth >= 2 x linkLatency + routerStages).
    struct Route
    {
        NodeId src, dst;
        MsgType type;
    };
    const Route routes[] = {{0, 1, MsgType::GetS},
                            {0, 15, MsgType::GetS},
                            {12, 3, MsgType::LockTry},
                            {0, 5, MsgType::Data},
                            {5, 5, MsgType::GetS}};
    for (unsigned link : {1u, 2u, 3u}) {
        for (unsigned stages : {1u, 2u, 3u}) {
            NocParams params;
            params.linkLatency = link;
            params.routerStages = stages;
            OcorConfig ocor;
            Network net(MeshShape{4, 4}, params, ocor);
            bool got = false;
            for (NodeId n = 0; n < 16; ++n)
                net.setNodeSink(n, [&](const PacketPtr &, Cycle) {
                    got = true;
                });
            Cycle now = 0;
            for (const Route &r : routes) {
                auto pkt = makePacket(r.type, r.src, r.dst, 0x80);
                if (pkt->numFlits > 1 &&
                    params.vcDepth < 2 * link + stages)
                    continue;
                got = false;
                net.send(pkt, now);
                for (Cycle end = now + 500; now < end; ++now) {
                    net.tick(now);
                    if (got && net.idle())
                        break;
                }
                ASSERT_TRUE(got);
                ++now;
                EXPECT_EQ(pkt->ejectCycle - pkt->injectCycle,
                          net.uncontendedLatency(*pkt))
                    << r.src << "->" << r.dst << " " << pkt->numFlits
                    << " flits, link " << link << ", stages " << stages;
            }
        }
    }
}

TEST(Network, DataPacketDeliveredWhole)
{
    NetRig rig;
    auto pkt = makePacket(MsgType::Data, 3, 12, 0x1000);
    EXPECT_EQ(pkt->numFlits, 8u);
    rig.net->send(pkt, 0);
    rig.runUntilIdle(0);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.net->totalFlitsInjected(), 8u);
    EXPECT_EQ(rig.net->totalPacketsInjected(), 1u);
}

TEST(Network, LocalLoopbackBypassesMesh)
{
    NetRig rig;
    auto pkt = makePacket(MsgType::GetS, 5, 5, 0x80);
    rig.net->send(pkt, 0);
    rig.runUntilIdle(0);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.net->totalFlitsInjected(), 0u)
        << "same-node traffic must not enter the mesh";
}

TEST(Network, ManyPacketsAllDelivered)
{
    NetRig rig;
    unsigned count = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            auto pkt = makePacket(MsgType::GetS, s, d,
                                  0x80 * (s * 16 + d));
            rig.net->send(pkt, 0);
            ++count;
        }
    }
    rig.runUntilIdle(0, 50000);
    EXPECT_EQ(rig.delivered.size(), count);
    EXPECT_EQ(rig.net->stats().packetsDelivered, count);
}

TEST(Network, SameFlowStaysOrdered)
{
    // Packets between the same (src, dst) of the same priority class
    // must be delivered in injection order (same route, FIFO VCs).
    NetRig rig;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i) {
        auto pkt = makePacket(MsgType::GetS, 0, 15, 0x80u * i);
        ids.push_back(pkt->id);
        rig.net->send(pkt, 0);
    }
    rig.runUntilIdle(0, 20000);
    ASSERT_EQ(rig.delivered.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(rig.delivered[i].second->id, ids[i]);
}

TEST(Network, LatencyStatsSplitByClass)
{
    NetRig rig;
    auto lock = makePacket(MsgType::LockTry, 0, 15, 0x80);
    auto data = makePacket(MsgType::GetS, 0, 15, 0x100);
    rig.net->send(lock, 0);
    rig.net->send(data, 0);
    rig.runUntilIdle(0);
    EXPECT_EQ(rig.net->stats().lockPacketLatency.count(), 1u);
    EXPECT_EQ(rig.net->stats().dataPacketLatency.count(), 1u);
    EXPECT_EQ(rig.net->stats().packetLatency.count(), 2u);
    EXPECT_EQ(rig.net->totalLockPacketsInjected(), 1u);
}

TEST(Network, OcorLockBeatsDataUnderContention)
{
    // Saturate one destination with data packets from several
    // sources, then inject a prioritized lock packet from the
    // farthest node: under OCOR its latency must be well below the
    // average data latency.
    NetRig rig(/*ocor_on=*/true);
    Cycle c = 0;
    for (int burst = 0; burst < 30; ++burst) {
        for (NodeId s : {1u, 2u, 4u, 8u}) {
            auto p = makePacket(MsgType::Data, s, 0,
                                0x1000u * burst + s);
            rig.net->send(p, c);
        }
        rig.net->tick(c);
        ++c;
    }
    auto lock = makePacket(MsgType::LockTry, 15, 0, 0x80);
    lock->priority = makePriority(rig.ocor, PriorityClass::LockTry,
                                  1, 0);
    rig.net->send(lock, c);
    rig.runUntilIdle(c, 50000);

    double lock_lat = rig.net->stats().lockPacketLatency.mean();
    double data_lat = rig.net->stats().dataPacketLatency.mean();
    EXPECT_LT(lock_lat, data_lat)
        << "prioritized lock packet must not queue behind data";
}

TEST(Network, IdleAfterDrainAndStatsConsistent)
{
    NetRig rig;
    for (int i = 0; i < 20; ++i)
        rig.net->send(makePacket(MsgType::InvAck, i % 16,
                                 (i * 7) % 16, 0x80u * i), 0);
    rig.runUntilIdle(0, 20000);
    EXPECT_TRUE(rig.net->idle());
    // Loopback packets (src==dst) never enter the mesh but are
    // delivered; mesh counts only cover real traversals.
    EXPECT_EQ(rig.net->stats().packetsDelivered, 20u);
}
