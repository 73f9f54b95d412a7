/**
 * @file
 * Unit tests for the thread-side queue-spinlock state machine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/qspinlock.hh"

using namespace ocor;

namespace
{

struct QsRig
{
    MeshShape mesh{2, 2};
    AddressMap amap{mesh, 128};
    OcorConfig ocor;
    OsParams os;
    Pcb pcb;
    std::vector<PacketPtr> sent;
    std::unique_ptr<QSpinlock> qs;
    Cycle now = 0;
    bool acquired = false;

    explicit QsRig(bool ocor_on = false)
    {
        ocor.enabled = ocor_on;
        pcb.tid = 0;
        pcb.node = 0;
        qs = std::make_unique<QSpinlock>(
            pcb, ocor, os, amap,
            [this](const PacketPtr &pkt, Cycle) {
                sent.push_back(pkt);
            });
    }

    void
    run(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now)
            qs->tick(now);
    }

    /** Deliver a home-sent message of @p type for @p lock. */
    void
    respond(MsgType type, Addr lock = 0x1000)
    {
        auto pkt = makePacket(type, 1, 0, lock);
        pkt->thread = 0;
        qs->handle(pkt, now);
    }

    PacketPtr
    lastSent()
    {
        return sent.empty() ? nullptr : sent.back();
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

TEST(QSpinlock, AcquireIssuesTryWithFullRtr)
{
    QsRig rig(true);
    rig.qs->acquire(0x1000, rig.now, [&](Cycle) {
        rig.acquired = true;
    });
    ASSERT_EQ(rig.sent.size(), 1u);
    EXPECT_EQ(rig.lastSent()->type, MsgType::LockTry);
    EXPECT_EQ(rig.pcb.regRtr, rig.ocor.maxSpinCount);
    EXPECT_EQ(rig.pcb.state, ThreadState::Spinning);
    EXPECT_TRUE(rig.lastSent()->priority.check);
}

TEST(QSpinlock, GrantEntersCriticalSection)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [&](Cycle) {
        rig.acquired = true;
    });
    rig.respond(MsgType::LockGrant);
    EXPECT_TRUE(rig.acquired);
    EXPECT_TRUE(rig.qs->holding());
    EXPECT_EQ(rig.pcb.state, ThreadState::InCS);
    EXPECT_EQ(rig.pcb.counters.spinWins, 1u);
    EXPECT_EQ(rig.pcb.counters.acquisitions, 1u);
}

TEST(QSpinlock, FailThenRemoteRetry)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    rig.respond(MsgType::LockFail);
    EXPECT_EQ(rig.countOfType(MsgType::LockTry), 1u);
    rig.run(rig.os.remoteTryInterval + 2);
    EXPECT_EQ(rig.countOfType(MsgType::LockTry), 2u)
        << "a remote revalidation must go out on the retry cadence";
}

TEST(QSpinlock, NotifyTriggersImmediateTry)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    rig.respond(MsgType::LockFail);
    rig.run(5);
    rig.respond(MsgType::LockFreeNotify);
    EXPECT_EQ(rig.countOfType(MsgType::LockTry), 2u)
        << "the release invalidation races a try immediately";
}

TEST(QSpinlock, NotifyIgnoredWhileTryInFlight)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    // No response yet: a notify must not duplicate the in-flight try.
    rig.respond(MsgType::LockFreeNotify);
    EXPECT_EQ(rig.countOfType(MsgType::LockTry), 1u);
}

// A release notice names the lock whose line it invalidated: a notice
// for another lock must not make a thread spinning on this one retry.
TEST(QSpinlock, NotifyForAnotherLockIgnored)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    rig.respond(MsgType::LockFail);
    ASSERT_FALSE(rig.qs->tryInFlight());
    rig.respond(MsgType::LockFreeNotify, 0x2000);
    EXPECT_EQ(rig.countOfType(MsgType::LockTry), 1u);
    EXPECT_EQ(rig.pcb.counters.retries, 0u);
}

TEST(QSpinlock, RtrDecreasesWithSpinTime)
{
    QsRig rig(true);
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    unsigned rtr0 = rig.qs->currentRtr(rig.now);
    EXPECT_EQ(rtr0, rig.ocor.maxSpinCount);
    unsigned rtr_mid =
        rig.qs->currentRtr(rig.now + 64 * rig.os.retryInterval);
    EXPECT_EQ(rtr_mid, rig.ocor.maxSpinCount - 64);
    unsigned rtr_late =
        rig.qs->currentRtr(rig.now + 10000 * rig.os.retryInterval);
    EXPECT_EQ(rtr_late, 1u) << "RTR saturates at 1";
}

TEST(QSpinlock, BudgetExhaustionLeadsToFutexWait)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    rig.respond(MsgType::LockFail);
    // Run past the whole spin budget plus the sleep preparation.
    Cycle budget = static_cast<Cycle>(rig.ocor.maxSpinCount)
        * rig.os.retryInterval;
    // Answer every retry with a fail so the budget really expires.
    for (Cycle end = rig.now + budget + rig.os.sleepPrepCycles + 10;
         rig.now < end; ++rig.now) {
        rig.qs->tick(rig.now);
        if (rig.qs->tryInFlight())
            rig.respond(MsgType::LockFail);
    }
    EXPECT_EQ(rig.countOfType(MsgType::FutexWait), 1u);
    EXPECT_EQ(rig.pcb.state, ThreadState::Sleeping);
    EXPECT_EQ(rig.pcb.counters.sleeps, 1u);
    EXPECT_TRUE(rig.qs->everSleptThisWait());
}

TEST(QSpinlock, WakeNotifyEntersCsAfterWakeupCost)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [&](Cycle) {
        rig.acquired = true;
    });
    rig.respond(MsgType::LockFail);
    // Force the sleep path.
    Cycle budget = static_cast<Cycle>(rig.ocor.maxSpinCount)
        * rig.os.retryInterval;
    for (Cycle end = rig.now + budget + rig.os.sleepPrepCycles + 10;
         rig.now < end; ++rig.now) {
        rig.qs->tick(rig.now);
        if (rig.qs->tryInFlight())
            rig.respond(MsgType::LockFail);
    }
    ASSERT_EQ(rig.pcb.state, ThreadState::Sleeping);

    rig.respond(MsgType::WakeNotify);
    EXPECT_EQ(rig.pcb.state, ThreadState::Waking);
    EXPECT_FALSE(rig.acquired);
    rig.run(rig.os.wakeupCycles + 2);
    EXPECT_TRUE(rig.acquired);
    EXPECT_EQ(rig.pcb.state, ThreadState::InCS);
    EXPECT_EQ(rig.pcb.counters.sleepWins, 1u);
}

TEST(QSpinlock, ReleaseSendsReleaseThenDelayedWake)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    rig.respond(MsgType::LockGrant);
    std::uint64_t prog_before = rig.pcb.prog;
    rig.qs->release(rig.now);
    EXPECT_EQ(rig.lastSent()->type, MsgType::LockRelease);
    EXPECT_EQ(rig.pcb.prog, prog_before + 1) << "Algorithm 2 PROG++";
    EXPECT_EQ(rig.countOfType(MsgType::FutexWake), 0u);
    rig.run(rig.os.futexWakeDelay + 2);
    EXPECT_EQ(rig.countOfType(MsgType::FutexWake), 1u);
    EXPECT_EQ(rig.pcb.state, ThreadState::Running);
    EXPECT_FALSE(rig.qs->holding());
}

TEST(QSpinlock, OcorStampsRtrAndWakeupPriorities)
{
    QsRig rig(true);
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    auto try_pkt = rig.lastSent();
    EXPECT_TRUE(try_pkt->priority.check);
    // Fresh try: largest RTR -> lowest locking level (1).
    EXPECT_EQ(onehotDecode(try_pkt->priority.priorityBits), 1u);

    rig.respond(MsgType::LockGrant);
    rig.qs->release(rig.now);
    auto rel = rig.lastSent();
    EXPECT_EQ(onehotDecode(rel->priority.priorityBits),
              rig.ocor.numRtrLevels);
    rig.run(rig.os.futexWakeDelay + 2);
    auto wake = rig.lastSent();
    ASSERT_EQ(wake->type, MsgType::FutexWake);
    EXPECT_EQ(onehotDecode(wake->priority.priorityBits), 0u)
        << "Wakeup Request Last";
}

TEST(QSpinlock, BaselineSendsUnstampedPackets)
{
    QsRig rig(false);
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    EXPECT_FALSE(rig.lastSent()->priority.check);
}

TEST(QSpinlockDeath, DoubleAcquirePanics)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    EXPECT_DEATH(rig.qs->acquire(0x2000, rig.now, [](Cycle) {}),
                 "busy");
}

TEST(QSpinlockDeath, ReleaseWithoutHoldPanics)
{
    QsRig rig;
    EXPECT_DEATH(rig.qs->release(rig.now), "without hold");
}

// Over a reliable NoC each LockTry gets exactly one verdict, so a
// grant or LockFail with no try in flight is a protocol bug.
TEST(QSpinlockDeath, DuplicateGrantWhileHoldingPanics)
{
    QsRig rig;
    rig.qs->acquire(0x1000, rig.now, [](Cycle) {});
    rig.respond(MsgType::LockGrant);
    ASSERT_TRUE(rig.qs->holding());
    EXPECT_DEATH(rig.respond(MsgType::LockGrant),
                 "LockGrant with no try in flight");
}

TEST(QSpinlockDeath, LockFailWithNoAttemptPanics)
{
    QsRig rig;
    EXPECT_DEATH(rig.respond(MsgType::LockFail),
                 "LockFail with no try in flight");
}
