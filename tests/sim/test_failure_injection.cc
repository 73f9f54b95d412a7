/**
 * @file
 * Failure injection: stale coherence messages, redundant FUTEX_WAKEs
 * and stray lock releases must be absorbed gracefully (counted,
 * warned about, never corrupting state). Reordering in the NoC
 * produces the first two; only a buggy client sends the third. Lock
 * messages the protocol cannot produce at all panic instead (see
 * the QSpinlock and LockManager death tests).
 */

#include <gtest/gtest.h>

#include "mem/l2_directory.hh"
#include "os/lock_manager.hh"

using namespace ocor;

namespace
{

SendFn
nullSend()
{
    return [](const PacketPtr &, Cycle) {};
}

} // namespace

TEST(FailureInjection, StaleInvAckIsCountedNotApplied)
{
    MeshShape mesh{4, 4};
    AddressMap amap(mesh, 128);
    MemParams params;
    L2Directory l2(0, amap, params, nullSend());

    auto ack = makePacket(MsgType::InvAck, 3, 0, 0x4000);
    ack->aux = 0x1234 << 8; // tag of a transaction that never was
    l2.handle(ack, 0);
    for (Cycle c = 0; c < params.l2Latency + 2; ++c)
        l2.tick(c);
    EXPECT_EQ(l2.stats().staleAcks, 1u);
    EXPECT_FALSE(l2.lineBusy(0x4000));
}

TEST(FailureInjection, StaleFetchRespIgnored)
{
    MeshShape mesh{4, 4};
    AddressMap amap(mesh, 128);
    MemParams params;
    L2Directory l2(0, amap, params, nullSend());

    auto resp = makePacket(MsgType::FetchResp, 3, 0, 0x4000);
    resp->aux = (7u << 8) | 1;
    l2.handle(resp, 0);
    for (Cycle c = 0; c < params.l2Latency + 2; ++c)
        l2.tick(c);
    EXPECT_EQ(l2.stats().staleAcks, 1u);
}

TEST(FailureInjection, StaleUnblockIgnored)
{
    MeshShape mesh{4, 4};
    AddressMap amap(mesh, 128);
    MemParams params;
    L2Directory l2(0, amap, params, nullSend());

    auto unb = makePacket(MsgType::Unblock, 3, 0, 0x4000);
    l2.handle(unb, 0);
    for (Cycle c = 0; c < params.l2Latency + 2; ++c)
        l2.tick(c);
    EXPECT_EQ(l2.stats().staleAcks, 1u);
    EXPECT_FALSE(l2.lineBusy(0x4000));
}

TEST(FailureInjection, PutFromNonOwnerIsHarmless)
{
    MeshShape mesh{4, 4};
    AddressMap amap(mesh, 128);
    MemParams params;
    L2Directory l2(0, amap, params, nullSend());

    auto put = makePacket(MsgType::PutE, 5, 0, 0x4000);
    l2.handle(put, 0);
    for (Cycle c = 0; c < params.l2Latency + 2; ++c)
        l2.tick(c);
    EXPECT_EQ(l2.ownerOf(0x4000), invalidNode);
}

TEST(FailureInjection, WakeForEmptyQueueIsNoOp)
{
    OsParams os;
    LockManager mgr(0, os, nullSend());
    auto wake = makePacket(MsgType::FutexWake, 1, 0, 0x1000);
    wake->thread = 1;
    mgr.handle(wake, 0);
    for (Cycle c = 0; c < os.homeLatency + 2; ++c)
        mgr.tick(c);
    EXPECT_FALSE(mgr.heldNow(0x1000));
    EXPECT_EQ(mgr.stats().wakes, 0u);
}

TEST(FailureInjection, DuplicateWakesGrantOnlyOnce)
{
    OsParams os;
    unsigned wake_notifies = 0;
    LockManager mgr(0, os, [&](const PacketPtr &pkt, Cycle) {
        if (pkt->type == MsgType::WakeNotify)
            ++wake_notifies;
    });
    auto deliver = [&](MsgType t, ThreadId tid) {
        auto pkt = makePacket(t, tid, 0, 0x1000);
        pkt->thread = tid;
        mgr.handle(pkt, 0);
        static Cycle now = 0;
        for (Cycle end = now + os.homeLatency + 2; now < end; ++now)
            mgr.tick(now);
    };
    deliver(MsgType::LockTry, 1);    // holder
    deliver(MsgType::FutexWait, 2);  // sleeper
    deliver(MsgType::LockRelease, 1);
    deliver(MsgType::FutexWake, 1);
    deliver(MsgType::FutexWake, 1);  // duplicate
    deliver(MsgType::FutexWake, 1);  // duplicate
    EXPECT_EQ(wake_notifies, 1u);
    EXPECT_EQ(mgr.holderOf(0x1000), 2u);
}

// Home-side: a stray LockRelease from a thread that does not hold the
// lock must not free it (mutual exclusion) — counted and dropped.
TEST(FailureInjection, StrayLockReleaseFromNonHolder)
{
    OsParams os;
    LockManager mgr(0, os, nullSend());
    Cycle now = 0;
    auto deliver = [&](MsgType t, ThreadId tid) {
        auto pkt = makePacket(t, tid, 0, 0x1000);
        pkt->thread = tid;
        mgr.handle(pkt, now);
        for (Cycle end = now + os.homeLatency + 2; now < end; ++now)
            mgr.tick(now);
    };
    deliver(MsgType::LockTry, 1);
    deliver(MsgType::LockRelease, 2); // a buggy client
    EXPECT_TRUE(mgr.heldNow(0x1000));
    EXPECT_EQ(mgr.holderOf(0x1000), 1u);
    EXPECT_EQ(mgr.stats().strayReleases, 1u);
}
