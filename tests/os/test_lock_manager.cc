/**
 * @file
 * Unit tests for the home-side lock manager: try/grant/fail
 * serialization, the futex queue, wakeup reservation semantics, and
 * the release invalidation burst.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/lock_manager.hh"

using namespace ocor;

namespace
{

struct LmRig
{
    OsParams params;
    std::vector<PacketPtr> sent;
    LockManager mgr;
    Cycle now = 0;

    LmRig()
        : mgr(0, params,
              [this](const PacketPtr &pkt, Cycle) {
                  sent.push_back(pkt);
              })
    {}

    /** Deliver a message and run past the home latency. */
    void
    deliver(MsgType type, ThreadId tid, NodeId node,
            Addr lock = 0x1000)
    {
        auto pkt = makePacket(type, node, 0, lock);
        pkt->thread = tid;
        mgr.handle(pkt, now);
        run(params.homeLatency + 1);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now)
            mgr.tick(now);
    }

    PacketPtr
    lastOfType(MsgType t)
    {
        for (auto it = sent.rbegin(); it != sent.rend(); ++it)
            if ((*it)->type == t)
                return *it;
        return nullptr;
    }

    unsigned
    countOfType(MsgType t)
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += p->type == t ? 1 : 0;
        return n;
    }
};

} // namespace

TEST(LockManager, FirstTryWins)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    auto grant = rig.lastOfType(MsgType::LockGrant);
    ASSERT_NE(grant, nullptr);
    EXPECT_EQ(grant->thread, 1u);
    EXPECT_TRUE(rig.mgr.heldNow(0x1000));
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 1u);
}

TEST(LockManager, SecondTryFailsAndRegistersPoller)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::LockTry, 2, 2);
    auto fail = rig.lastOfType(MsgType::LockFail);
    ASSERT_NE(fail, nullptr);
    EXPECT_EQ(fail->thread, 2u);
    EXPECT_EQ(rig.mgr.pollerCount(0x1000), 1u);
}

TEST(LockManager, PollerRegisteredOnce)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::LockTry, 2, 2);
    rig.deliver(MsgType::LockTry, 2, 2);
    EXPECT_EQ(rig.mgr.pollerCount(0x1000), 1u);
}

TEST(LockManager, ReleaseInvalidatesAllPollers)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::LockTry, 2, 2);
    rig.deliver(MsgType::LockTry, 3, 3);
    rig.deliver(MsgType::LockRelease, 1, 1);
    EXPECT_FALSE(rig.mgr.heldNow(0x1000));
    EXPECT_EQ(rig.countOfType(MsgType::LockFreeNotify), 2u);
}

TEST(LockManager, WinnerRemovedFromPollers)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::LockTry, 2, 2); // poller
    rig.deliver(MsgType::LockRelease, 1, 1);
    rig.deliver(MsgType::LockTry, 2, 2); // wins now
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 2u);
    EXPECT_EQ(rig.mgr.pollerCount(0x1000), 0u);
}

TEST(LockManager, FutexWaitQueuesWhileHeld)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::FutexWait, 2, 2);
    EXPECT_EQ(rig.mgr.queueLength(0x1000), 1u);
    EXPECT_EQ(rig.countOfType(MsgType::WakeNotify), 0u);
}

TEST(LockManager, FutexWaitOnFreeLockGrantsImmediately)
{
    LmRig rig;
    rig.deliver(MsgType::FutexWait, 2, 2);
    // Futex re-check: lock free -> woken immediately with the lock
    // reserved for it.
    auto wake = rig.lastOfType(MsgType::WakeNotify);
    ASSERT_NE(wake, nullptr);
    EXPECT_EQ(wake->thread, 2u);
    EXPECT_TRUE(rig.mgr.heldNow(0x1000));
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 2u);
    EXPECT_EQ(rig.mgr.queueLength(0x1000), 0u);
}

TEST(LockManager, WakeReservesForHeadSleeper)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::FutexWait, 2, 2);
    rig.deliver(MsgType::FutexWait, 3, 3);
    rig.deliver(MsgType::LockRelease, 1, 1);
    rig.deliver(MsgType::FutexWake, 1, 1);
    auto wake = rig.lastOfType(MsgType::WakeNotify);
    ASSERT_NE(wake, nullptr);
    EXPECT_EQ(wake->thread, 2u) << "FIFO head must be woken";
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 2u);
    EXPECT_EQ(rig.mgr.queueLength(0x1000), 1u);
}

TEST(LockManager, SpinnerStealBeatsLateWake)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::FutexWait, 2, 2);
    rig.deliver(MsgType::LockRelease, 1, 1);
    // A spinner's try lands before the holder's FUTEX_WAKE.
    rig.deliver(MsgType::LockTry, 3, 3);
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 3u);
    rig.deliver(MsgType::FutexWake, 1, 1);
    // The wake finds the lock held: the sleeper must stay parked.
    EXPECT_EQ(rig.mgr.queueLength(0x1000), 1u);
    EXPECT_EQ(rig.countOfType(MsgType::WakeNotify), 0u);
}

TEST(LockManager, WakeRetrySafetyNetFiresEventually)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::FutexWait, 2, 2);
    // Holder's wake raced ahead and was dropped while held.
    rig.deliver(MsgType::FutexWake, 1, 1);
    EXPECT_EQ(rig.countOfType(MsgType::WakeNotify), 0u);
    rig.deliver(MsgType::LockRelease, 1, 1);
    // No further wake packet ever arrives; the retry must save the
    // parked sleeper.
    rig.run(rig.params.wakeRetryDelay + 10);
    EXPECT_EQ(rig.countOfType(MsgType::WakeNotify), 1u);
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 2u);
}

TEST(LockManager, IndependentLocks)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1, 0x1000);
    rig.deliver(MsgType::LockTry, 2, 2, 0x2000);
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 1u);
    EXPECT_EQ(rig.mgr.holderOf(0x2000), 2u);
    EXPECT_EQ(rig.countOfType(MsgType::LockGrant), 2u);
}

TEST(LockManager, GrantInheritsRequestPriority)
{
    LmRig rig;
    OcorConfig on;
    on.enabled = true;
    auto pkt = makePacket(MsgType::LockTry, 2, 0, 0x1000);
    pkt->thread = 2;
    pkt->priority = makePriority(on, PriorityClass::LockTry, 1, 0);
    rig.mgr.handle(pkt, rig.now);
    rig.run(rig.params.homeLatency + 1);
    auto grant = rig.lastOfType(MsgType::LockGrant);
    ASSERT_NE(grant, nullptr);
    EXPECT_TRUE(grant->priority.check);
    EXPECT_EQ(grant->priority.priorityBits,
              pkt->priority.priorityBits);
}

TEST(LockManager, StatsTrackTraffic)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::LockTry, 2, 2);
    rig.deliver(MsgType::FutexWait, 2, 2);
    rig.deliver(MsgType::LockRelease, 1, 1);
    rig.deliver(MsgType::FutexWake, 1, 1);
    const auto &s = rig.mgr.stats();
    EXPECT_EQ(s.tries, 2u);
    EXPECT_EQ(s.grants, 1u);
    EXPECT_EQ(s.fails, 1u);
    EXPECT_EQ(s.releases, 1u);
    EXPECT_EQ(s.futexWaits, 1u);
    EXPECT_EQ(s.wakes, 1u);
}

// Stray releases (only a buggy client sends one) are absorbed, not
// honored: honoring one would free a lock someone else holds.
TEST(LockManager, ReleaseOfFreeLockAbsorbed)
{
    LmRig rig;
    rig.deliver(MsgType::LockRelease, 1, 1);
    EXPECT_FALSE(rig.mgr.heldNow(0x1000));
    EXPECT_EQ(rig.mgr.stats().strayReleases, 1u);
    EXPECT_EQ(rig.mgr.stats().releases, 0u);
}

TEST(LockManager, ReleaseByNonHolderAbsorbed)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::LockRelease, 2, 2);
    // Thread 1 still holds the lock; the stray release changed
    // nothing.
    EXPECT_TRUE(rig.mgr.heldNow(0x1000));
    EXPECT_EQ(rig.mgr.holderOf(0x1000), 1u);
    EXPECT_EQ(rig.mgr.stats().strayReleases, 1u);
    EXPECT_EQ(rig.mgr.stats().releases, 0u);
}

// A thread already in the futex queue is asleep and cannot register
// again; a second FutexWait is a protocol bug, not a message to absorb.
TEST(LockManagerDeath, FutexWaitFromQueuedThreadPanics)
{
    LmRig rig;
    rig.deliver(MsgType::LockTry, 1, 1);
    rig.deliver(MsgType::FutexWait, 2, 2);
    ASSERT_EQ(rig.mgr.queueLength(0x1000), 1u);
    EXPECT_DEATH(rig.deliver(MsgType::FutexWait, 2, 2), "already queued");
}
