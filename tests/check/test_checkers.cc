/**
 * @file
 * Unit tests for the invariant checkers (DESIGN.md §11): the
 * CheckConfig mask/parsing surface and, for every checker class, a
 * clean scenario plus at least one seeded violation asserting the
 * checker fires with the right diagnostic.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/check_config.hh"
#include "check/checkers.hh"
#include "core/priority.hh"
#include "noc/packet.hh"

using namespace ocor;

namespace
{

/** Collecting report sink shared by every unit test. */
struct Sink
{
    std::vector<CheckViolation> got;

    ReportFn
    fn()
    {
        return [this](CheckId id, Cycle c, const std::string &m) {
            got.push_back({id, c, m});
        };
    }

    bool
    has(CheckId id, const std::string &needle) const
    {
        for (const CheckViolation &v : got)
            if (v.id == id &&
                v.message.find(needle) != std::string::npos)
                return true;
        return false;
    }
};

OcorConfig
ocorOn()
{
    OcorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

} // namespace

// --- CheckConfig ----------------------------------------------------

TEST(CheckConfig, MaskHelpersCoverEveryChecker)
{
    unsigned all = 0;
    for (unsigned i = 0;
         i < static_cast<unsigned>(CheckId::NumChecks); ++i)
        all |= checkBit(static_cast<CheckId>(i));
    EXPECT_EQ(all, allChecksMask());

    CheckConfig cfg;
    cfg.checks = 0;
    EXPECT_FALSE(cfg.enabled());
    cfg.checks = checkBit(CheckId::Credit);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_TRUE(cfg.has(CheckId::Credit));
    EXPECT_FALSE(cfg.has(CheckId::Mutex));
}

TEST(CheckConfig, NamesAreStableAndDistinct)
{
    EXPECT_STREQ(checkName(CheckId::Mutex), "mutex");
    EXPECT_STREQ(checkName(CheckId::VcFifo), "vc-fifo");
    EXPECT_STREQ(checkName(CheckId::OneHot), "onehot");
    EXPECT_STREQ(checkName(CheckId::Arbitration), "arbitration");
    EXPECT_STREQ(checkName(CheckId::Credit), "credit");
    EXPECT_STREQ(checkName(CheckId::Rtr), "rtr");
    EXPECT_STREQ(checkName(CheckId::Wakeup), "wakeup");
}

TEST(CheckConfig, ParseRoundTripsNamesAndAll)
{
    EXPECT_EQ(parseCheckList("all"), allChecksMask());
    EXPECT_EQ(parseCheckList("mutex"), checkBit(CheckId::Mutex));
    EXPECT_EQ(parseCheckList("credit,wakeup"),
              checkBit(CheckId::Credit) | checkBit(CheckId::Wakeup));
    // Every stable name parses back to its own bit.
    for (unsigned i = 0;
         i < static_cast<unsigned>(CheckId::NumChecks); ++i) {
        CheckId id = static_cast<CheckId>(i);
        EXPECT_EQ(parseCheckList(checkName(id)), checkBit(id));
    }
}

TEST(CheckConfigDeathTest, UnknownCheckerNameAborts)
{
    EXPECT_DEATH(parseCheckList("mutex,bogus"), "unknown checker");
}

// --- VcFifoChecker --------------------------------------------------

TEST(VcFifoChecker, InOrderTrafficIsClean)
{
    Sink sink;
    VcFifoChecker ck(sink.fn());
    ck.onPush(3, 1, 0, /*pkt*/ 7, /*flit*/ 0, 10);
    ck.onPush(3, 1, 0, 7, 1, 11);
    ck.onPop(3, 1, 0, 7, 0, 12);
    ck.onPop(3, 1, 0, 7, 1, 13);
    EXPECT_TRUE(sink.got.empty());
}

TEST(VcFifoChecker, ReorderWithinVcFires)
{
    Sink sink;
    VcFifoChecker ck(sink.fn());
    ck.onPush(3, 1, 0, 7, 0, 10);
    ck.onPush(3, 1, 0, 9, 0, 11);
    ck.onPop(3, 1, 0, 9, 0, 12); // younger flit jumped the queue
    EXPECT_TRUE(sink.has(CheckId::VcFifo, "reordered"));
}

TEST(VcFifoChecker, DistinctVcsDoNotInterfere)
{
    Sink sink;
    VcFifoChecker ck(sink.fn());
    ck.onPush(3, 1, 0, 7, 0, 10);
    ck.onPush(3, 1, 1, 9, 0, 10); // other VC, may pop first
    ck.onPop(3, 1, 1, 9, 0, 11);
    ck.onPop(3, 1, 0, 7, 0, 12);
    EXPECT_TRUE(sink.got.empty());
}

TEST(VcFifoChecker, PopFromEmptyVcFires)
{
    Sink sink;
    VcFifoChecker ck(sink.fn());
    ck.onPop(0, 0, 0, 1, 0, 5);
    EXPECT_TRUE(sink.has(CheckId::VcFifo, "empty shadow FIFO"));
}

// --- OneHotChecker --------------------------------------------------

TEST(OneHotChecker, WellFormedLockHeaderIsClean)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    OneHotChecker ck(sink.fn(), ocor);

    auto pkt = makePacket(MsgType::LockTry, 0, 1, 0x200);
    pkt->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    ck.onInject(*pkt, 1);

    auto wake = makePacket(MsgType::WakeNotify, 1, 0, 0x200);
    wake->priority = makePriority(ocor, PriorityClass::Wakeup, 1, 0);
    ck.onInject(*wake, 2);

    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);
    ck.onInject(*data, 3);

    EXPECT_TRUE(sink.got.empty());
}

TEST(OneHotChecker, NonOneHotPriorityWordFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    OneHotChecker ck(sink.fn(), ocor);
    auto pkt = makePacket(MsgType::LockTry, 0, 1, 0x200);
    pkt->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    pkt->priority.priorityBits |= 0x6; // two extra bits: not one-hot
    ck.onInject(*pkt, 1);
    EXPECT_TRUE(sink.has(CheckId::OneHot, "not one-hot"));
}

TEST(OneHotChecker, CheckBitOnDataPacketFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    OneHotChecker ck(sink.fn(), ocor);
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    pkt->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    ck.onInject(*pkt, 1);
    EXPECT_TRUE(
        sink.has(CheckId::OneHot, "check bit on a non-lock packet"));
}

TEST(OneHotChecker, PriorityBitsWithoutCheckBitFire)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    OneHotChecker ck(sink.fn(), ocor);
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    pkt->priority.priorityBits = 0x2; // stray header bits
    ck.onInject(*pkt, 1);
    EXPECT_TRUE(sink.has(CheckId::OneHot, "without the check bit"));
}

TEST(OneHotChecker, WakeupAboveLevelZeroFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    OneHotChecker ck(sink.fn(), ocor);
    auto pkt = makePacket(MsgType::WakeNotify, 1, 0, 0x200);
    // Stamp it like a locking request: lands on a level >= 1.
    pkt->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    ck.onInject(*pkt, 1);
    EXPECT_TRUE(sink.has(CheckId::OneHot, "Table 1 rule 4"));
}

// --- ArbitrationChecker ---------------------------------------------

TEST(ArbitrationChecker, HighestRankGrantIsClean)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    ArbitrationChecker ck(sink.fn(), ocor);

    auto lock = makePacket(MsgType::LockTry, 0, 1, 0x200);
    lock->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);

    std::vector<const Packet *> cands = {lock.get(), data.get()};
    ck.onGrant(0, "sa-global", cands, 0, 5);
    EXPECT_TRUE(sink.got.empty());
}

TEST(ArbitrationChecker, GrantBeatingHigherPriorityRivalFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    ArbitrationChecker ck(sink.fn(), ocor);

    auto lock = makePacket(MsgType::LockTry, 0, 1, 0x200);
    lock->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);

    std::vector<const Packet *> cands = {lock.get(), data.get()};
    ck.onGrant(0, "sa-global", cands, 1, 5); // data beat the lock
    EXPECT_TRUE(sink.has(CheckId::Arbitration, "Table 1 violated"));
}

TEST(ArbitrationChecker, GrantToNonRequesterFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    ArbitrationChecker ck(sink.fn(), ocor);
    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);
    std::vector<const Packet *> cands = {data.get(), nullptr};
    ck.onGrant(0, "va", cands, 1, 5);
    EXPECT_TRUE(sink.has(CheckId::Arbitration, "not a requester"));
}

// --- CreditChecker --------------------------------------------------

TEST(CreditChecker, BalancedFlowIsClean)
{
    Sink sink;
    CreditChecker ck(sink.fn(), /*vc_depth=*/4);
    for (unsigned i = 0; i < 4; ++i)
        ck.onTraversal(0, 1, 0, i);
    for (unsigned i = 0; i < 4; ++i)
        ck.onCredit(0, 1, 0, 10 + i);
    ck.onLinkFlitSent();
    ck.onLinkFlitDelivered();
    ck.finalize(/*drained=*/true, 20);
    EXPECT_TRUE(sink.got.empty());
}

TEST(CreditChecker, OversendingBeyondDepthFires)
{
    Sink sink;
    CreditChecker ck(sink.fn(), 4);
    for (unsigned i = 0; i < 5; ++i) // 5 in flight into a 4-deep VC
        ck.onTraversal(0, 1, 0, i);
    EXPECT_TRUE(sink.has(CheckId::Credit, "credit underflow"));
}

TEST(CreditChecker, SpuriousCreditFires)
{
    Sink sink;
    CreditChecker ck(sink.fn(), 4);
    ck.onCredit(0, 1, 0, 3);
    EXPECT_TRUE(sink.has(CheckId::Credit, "spurious credit"));
}

TEST(CreditChecker, CreditLeakAtDrainFires)
{
    Sink sink;
    CreditChecker ck(sink.fn(), 4);
    ck.onTraversal(2, 1, 0, 1);
    ck.finalize(true, 50);
    EXPECT_TRUE(
        sink.has(CheckId::Credit, "never returned after drain"));
}

TEST(CreditChecker, WireConservationFires)
{
    Sink sink;
    CreditChecker ck(sink.fn(), 4);
    ck.onLinkFlitSent();
    ck.onLinkFlitSent();
    ck.onLinkFlitDelivered(); // one flit vanished
    ck.finalize(true, 50);
    EXPECT_TRUE(sink.has(CheckId::Credit, "conservation broken"));
}

TEST(CreditChecker, TruncatedRunSkipsDrainChecks)
{
    Sink sink;
    CreditChecker ck(sink.fn(), 4);
    ck.onTraversal(0, 1, 0, 1);
    ck.onLinkFlitSent();
    ck.finalize(/*drained=*/false, 50);
    EXPECT_TRUE(sink.got.empty());
}

// --- RtrChecker -----------------------------------------------------

TEST(RtrChecker, NonIncreasingRtrIsClean)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    RtrChecker ck(sink.fn(), ocor);
    ck.onAcquireStart(0, 1);
    ck.onLockTry(0, ocor.maxSpinCount, 2);
    ck.onLockTry(0, ocor.maxSpinCount - 1, 10);
    ck.onLockTry(0, ocor.maxSpinCount - 1, 20); // plateaus are fine
    EXPECT_TRUE(sink.got.empty());
}

TEST(RtrChecker, RisingRtrWithinAttemptFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    RtrChecker ck(sink.fn(), ocor);
    ck.onAcquireStart(0, 1);
    ck.onLockTry(0, 3, 2);
    ck.onLockTry(0, 4, 10); // RTR must never rise mid-attempt
    EXPECT_TRUE(sink.has(CheckId::Rtr, "must be non-increasing"));
}

TEST(RtrChecker, NewAttemptResetsTheBudget)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    RtrChecker ck(sink.fn(), ocor);
    ck.onAcquireStart(0, 1);
    ck.onLockTry(0, 2, 2);
    ck.onAcquireStart(0, 100); // next lock() call starts fresh
    ck.onLockTry(0, ocor.maxSpinCount, 101);
    EXPECT_TRUE(sink.got.empty());
}

TEST(RtrChecker, RtrOutsideSpinBudgetFires)
{
    Sink sink;
    OcorConfig ocor = ocorOn();
    RtrChecker ck(sink.fn(), ocor);
    ck.onAcquireStart(0, 1);
    ck.onLockTry(0, ocor.maxSpinCount + 1, 2);
    EXPECT_TRUE(sink.has(CheckId::Rtr, "outside [1,"));
    ck.onLockTry(1, 0, 3);
    EXPECT_TRUE(sink.got.size() >= 2);
}

// --- WakeupChecker --------------------------------------------------

TEST(WakeupChecker, MatchedWakeIsClean)
{
    Sink sink;
    WakeupChecker ck(sink.fn());
    ck.onWakeSent(0x200, 3, 10);
    ck.onWakeConsumed(0x200, 3, 25);
    ck.finalize(/*drained=*/true, 30);
    EXPECT_TRUE(sink.got.empty());
}

TEST(WakeupChecker, SecondWakeBeforeConsumptionFires)
{
    Sink sink;
    WakeupChecker ck(sink.fn());
    ck.onWakeSent(0x200, 3, 10);
    ck.onWakeSent(0x200, 3, 500); // same sleeper, first still in flight
    EXPECT_TRUE(sink.has(CheckId::Wakeup, "second WAKE_UP"));
}

TEST(WakeupChecker, ConsumeWithoutSendFires)
{
    Sink sink;
    WakeupChecker ck(sink.fn());
    ck.onWakeConsumed(0x200, 3, 25);
    EXPECT_TRUE(sink.has(CheckId::Wakeup, "never issued"));
}

TEST(WakeupChecker, LostWakeupAtFinalizeFires)
{
    Sink sink;
    WakeupChecker ck(sink.fn());
    ck.onWakeSent(0x200, 3, 10);
    ck.finalize(/*drained=*/true, 100);
    EXPECT_TRUE(sink.has(CheckId::Wakeup, "lost wakeup"));
}

TEST(WakeupChecker, TruncatedRunExcusesOutstandingWakes)
{
    Sink sink;
    WakeupChecker ck(sink.fn());
    ck.onWakeSent(0x200, 3, 10);
    ck.finalize(/*drained=*/false, 100);
    EXPECT_TRUE(sink.got.empty());
}
