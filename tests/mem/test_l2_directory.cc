/**
 * @file
 * Unit tests for one L2 bank + directory in isolation (hand-driven
 * protocol messages, no network), with a tiny 2-set x 2-way geometry
 * so that a third line at one home evicts.
 *
 * On a 4x4 mesh a home bank serves the lines whose index is that
 * node modulo 16, and the set index is the line index's low bit, so
 * all of a bank's lines land in one set: lines a(0), a(1), a(2) below
 * fill both ways and then force the victim path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/l2_directory.hh"

using namespace ocor;

namespace
{

constexpr NodeId kHome = 5;

struct L2Rig
{
    MeshShape mesh{4, 4};
    AddressMap amap{mesh, 128};
    MemParams params;
    std::vector<PacketPtr> sent;
    std::unique_ptr<L2Directory> l2;
    Cycle now = 0;

    L2Rig()
    {
        params.l2Sets = 2;
        params.l2Ways = 2;
        l2 = std::make_unique<L2Directory>(
            kHome, amap, params, [this](const PacketPtr &pkt, Cycle) {
                sent.push_back(pkt);
            });
    }

    /** The k-th line homed at kHome. */
    Addr
    line(unsigned k) const
    {
        return (kHome + 16 * Addr{k}) * 128;
    }

    /** Deliver one message and run the bank past its latency;
     * returns what the bank sent in response. */
    std::vector<PacketPtr>
    deliver(MsgType type, NodeId src, Addr a, std::uint32_t aux = 0)
    {
        auto pkt = makePacket(type, src, kHome, a);
        pkt->aux = aux;
        sent.clear();
        l2->handle(pkt, now);
        now += params.l2Latency;
        l2->tick(now);
        return sent;
    }

    /** Cold GetS from @p node: memory round trip, E grant, unblock. */
    void
    coldRead(NodeId node, Addr a)
    {
        auto out = deliver(MsgType::GetS, node, a);
        ASSERT_EQ(out.size(), 1u);
        ASSERT_EQ(out[0]->type, MsgType::MemRead);
        out = deliver(MsgType::MemResp, amap.mcOf(a), a);
        ASSERT_EQ(out.back()->type, MsgType::DataExcl);
        ASSERT_EQ(out.back()->dst, node);
        deliver(MsgType::Unblock, node, a);
    }
};

void
expectMsg(const PacketPtr &p, MsgType type, NodeId dst, Addr a)
{
    EXPECT_EQ(p->type, type) << msgTypeName(p->type);
    EXPECT_EQ(p->dst, dst);
    EXPECT_EQ(p->addr, a);
}

} // namespace

TEST(L2Victim, EvictionRecallsCopiesAndWritesBack)
{
    L2Rig rig;
    const Addr a0 = rig.line(0), a1 = rig.line(1), a2 = rig.line(2);

    // a0: node 1 owns it (O after a downgrade), node 2 shares it.
    rig.coldRead(1, a0);
    auto out = rig.deliver(MsgType::GetS, 2, a0);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Fetch, 1, a0);
    EXPECT_EQ(out[0]->aux, 1u << 8);
    out = rig.deliver(MsgType::FetchResp, 1, a0, 1u << 8);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Data, 2, a0);
    rig.deliver(MsgType::Unblock, 2, a0);
    ASSERT_EQ(rig.l2->ownerOf(a0), 1u);
    ASSERT_EQ(rig.l2->sharersOf(a0), std::uint64_t{1} << 2);

    rig.coldRead(3, a1); // both ways full; a0 is LRU
    EXPECT_EQ(rig.l2->stats().l2Evictions, 0u);

    // a2's fill evicts a0: recall Invs to the owner and the sharer
    // (ascending node order, tagged with a0's next txSeq), then the
    // writeback to a0's controller, then a2's grant.
    ASSERT_EQ(rig.deliver(MsgType::GetS, 4, a2).size(), 1u);
    out = rig.deliver(MsgType::MemResp, rig.amap.mcOf(a2), a2);
    ASSERT_EQ(out.size(), 4u);
    expectMsg(out[0], MsgType::Inv, 1, a0);
    expectMsg(out[1], MsgType::Inv, 2, a0);
    EXPECT_EQ(out[0]->aux, 2u << 8);
    EXPECT_EQ(out[1]->aux, 2u << 8);
    expectMsg(out[2], MsgType::MemWrite, rig.amap.mcOf(a0), a0);
    expectMsg(out[3], MsgType::DataExcl, 4, a2);

    const L2Stats &st = rig.l2->stats();
    EXPECT_EQ(st.l2Evictions, 1u);
    EXPECT_EQ(st.invsSent, 2u);
    EXPECT_EQ(st.memWrites, 1u);
    EXPECT_EQ(st.memReads, 3u);
    EXPECT_EQ(rig.l2->ownerOf(a0), invalidNode);
    EXPECT_EQ(rig.l2->sharersOf(a0), 0u);
    EXPECT_FALSE(rig.l2->lineBusy(a0));
    rig.deliver(MsgType::Unblock, 4, a2);

    // The recall acks find no transaction: both count as stale.
    EXPECT_TRUE(rig.deliver(MsgType::InvAck, 1, a0, 2u << 8).empty());
    EXPECT_TRUE(rig.deliver(MsgType::InvAck, 2, a0, 2u << 8).empty());
    EXPECT_EQ(st.staleAcks, 2u);
    EXPECT_TRUE(rig.l2->idle());

    // A later request sees a fresh entry: no Fetch to the old owner,
    // a memory read, and an exclusive grant. Its fill evicts a1, the
    // LRU way now, whose recall goes to a1's owner with txSeq 1.
    out = rig.deliver(MsgType::GetS, 6, a0);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::MemRead, rig.amap.mcOf(a0), a0);
    out = rig.deliver(MsgType::MemResp, rig.amap.mcOf(a0), a0);
    ASSERT_EQ(out.size(), 3u);
    expectMsg(out[0], MsgType::Inv, 3, a1);
    EXPECT_EQ(out[0]->aux, 1u << 8);
    expectMsg(out[1], MsgType::MemWrite, rig.amap.mcOf(a1), a1);
    expectMsg(out[2], MsgType::DataExcl, 6, a0);
    EXPECT_EQ(rig.l2->ownerOf(a0), 6u);
    EXPECT_EQ(rig.l2->sharersOf(a0), 0u);
    EXPECT_EQ(st.fetchesSent, 1u);
    EXPECT_EQ(st.l2Evictions, 2u);
}

TEST(L2Victim, EvictedEntryRestartsItsTransactionTags)
{
    // An evicted line's directory entry starts over: its txSeq is 0
    // again, so the first GetM after the eviction tags its Invs 1,
    // as on a line never seen before.
    L2Rig rig;
    const Addr a0 = rig.line(0), a1 = rig.line(1), a2 = rig.line(2);
    rig.coldRead(1, a0);
    auto out = rig.deliver(MsgType::GetM, 2, a0); // txSeq 1
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0]->aux, (1u << 8) | 1);
    rig.deliver(MsgType::FetchResp, 1, a0, (1u << 8) | 1);
    rig.deliver(MsgType::Unblock, 2, a0);
    rig.coldRead(3, a1);
    rig.coldRead(4, a2); // evicts a0 (txSeq 2 on its recall)
    ASSERT_EQ(rig.l2->stats().l2Evictions, 1u);

    // Node 5 reads a0 again (fresh entry, E grant), node 6 writes it.
    rig.coldRead(5, a0);
    out = rig.deliver(MsgType::GetM, 6, a0);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Fetch, 5, a0);
    EXPECT_EQ(out[0]->aux, (1u << 8) | 1);
}

TEST(L2Victim, BusyVictimKeepsDirectoryState)
{
    L2Rig rig;
    const Addr a0 = rig.line(0), a1 = rig.line(1), a2 = rig.line(2);
    rig.coldRead(1, a0); // node 1 owns a0 (E)
    rig.coldRead(3, a1); // a0 is LRU

    // Node 2's GetS makes a0 busy, waiting for the owner's data.
    auto out = rig.deliver(MsgType::GetS, 2, a0);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Fetch, 1, a0);
    ASSERT_TRUE(rig.l2->lineBusy(a0));

    // A writeback of a2 (from a node that does not own it) fills the
    // bank while a0 is busy: only a0's L2 copy goes, its directory
    // state stays, and nothing is recalled or written back.
    out = rig.deliver(MsgType::PutM, 9, a2);
    EXPECT_TRUE(out.empty());
    const L2Stats &st = rig.l2->stats();
    EXPECT_EQ(st.l2Evictions, 1u);
    EXPECT_EQ(st.invsSent, 0u);
    EXPECT_EQ(st.memWrites, 0u);
    EXPECT_TRUE(rig.l2->lineBusy(a0));
    EXPECT_EQ(rig.l2->ownerOf(a0), 1u);

    // The transaction completes on the kept state: the owner's data
    // refills a0 (evicting a1, now LRU) and node 2 gets a shared copy.
    out = rig.deliver(MsgType::FetchResp, 1, a0, 1u << 8);
    ASSERT_EQ(out.size(), 3u);
    expectMsg(out[0], MsgType::Inv, 3, a1);
    expectMsg(out[1], MsgType::MemWrite, rig.amap.mcOf(a1), a1);
    expectMsg(out[2], MsgType::Data, 2, a0);
    EXPECT_EQ(st.l2Evictions, 2u);
    EXPECT_EQ(rig.l2->ownerOf(a0), 1u);
    EXPECT_EQ(rig.l2->sharersOf(a0), std::uint64_t{1} << 2);
    rig.deliver(MsgType::Unblock, 2, a0);
    EXPECT_FALSE(rig.l2->lineBusy(a0));
    EXPECT_TRUE(rig.l2->idle());
}

TEST(L2Victim, QueuedRequestsDrainInArrivalOrder)
{
    // Requests that arrive while a line is busy wait in its pending
    // FIFO and are served in arrival order once it unblocks, while
    // another line's queue at the same bank stays separate.
    L2Rig rig;
    const Addr a0 = rig.line(0), a1 = rig.line(1);
    rig.coldRead(1, a0);
    rig.coldRead(2, a1);
    rig.deliver(MsgType::GetM, 3, a0); // Fetch to 1: a0 busy
    rig.deliver(MsgType::GetM, 4, a1); // Fetch to 2: a1 busy
    EXPECT_TRUE(rig.deliver(MsgType::GetS, 7, a0).empty());
    EXPECT_TRUE(rig.deliver(MsgType::GetS, 8, a1).empty());
    EXPECT_TRUE(rig.deliver(MsgType::GetM, 9, a0).empty());
    EXPECT_EQ(rig.l2->stats().queuedRequests, 3u);

    auto out = rig.deliver(MsgType::FetchResp, 1, a0, (1u << 8) | 1);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::DataExcl, 3, a0);
    // Node 3's unblock starts node 7's GetS (a Fetch from the new
    // owner); node 9's GetM stays queued behind it.
    out = rig.deliver(MsgType::Unblock, 3, a0);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Fetch, 3, a0);
    out = rig.deliver(MsgType::FetchResp, 3, a0, 2u << 8);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Data, 7, a0);
    out = rig.deliver(MsgType::Unblock, 7, a0);
    ASSERT_EQ(out.size(), 2u);
    expectMsg(out[0], MsgType::Inv, 7, a0);
    expectMsg(out[1], MsgType::Fetch, 3, a0);

    // a1's queue was untouched by a0's drain.
    EXPECT_TRUE(rig.l2->lineBusy(a1));
    out = rig.deliver(MsgType::FetchResp, 2, a1, (1u << 8) | 1);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::DataExcl, 4, a1);
    out = rig.deliver(MsgType::Unblock, 4, a1);
    ASSERT_EQ(out.size(), 1u);
    expectMsg(out[0], MsgType::Fetch, 4, a1);
    EXPECT_FALSE(rig.l2->idle());
}
