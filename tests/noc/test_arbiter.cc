/**
 * @file
 * Unit tests for the rank arbiter and the one-hot LPA (Figure 9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "noc/arbiter.hh"

using namespace ocor;

namespace
{

/** pick() over a rank vector, negative entries not requesting. */
int
pickRanks(Arbiter &arb, const std::vector<std::int64_t> &ranks)
{
    ReqMask req;
    for (unsigned i = 0; i < ranks.size(); ++i)
        if (ranks[i] >= 0)
            req.set(i);
    return arb.pick(req, [&](unsigned i) { return ranks[i]; });
}

/**
 * The arbiter as it was before the mask pick: a full max scan, then a
 * modulo walk from the pointer to the first max-rank input. Kept here
 * as the reference the mask pick must match exactly.
 */
struct ScanArbiter
{
    unsigned numInputs;
    unsigned pointer = 0;

    int
    pick(const std::vector<std::int64_t> &ranks)
    {
        std::int64_t best = -1;
        for (auto r : ranks)
            best = r > best ? r : best;
        if (best < 0)
            return -1;
        for (unsigned off = 0; off < numInputs; ++off) {
            unsigned idx = (pointer + off) % numInputs;
            if (ranks[idx] == best) {
                pointer = (idx + 1) % numInputs;
                return static_cast<int>(idx);
            }
        }
        return -1;
    }
};

} // namespace

TEST(Arbiter, NoRequestersReturnsMinusOne)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{-1, -1, -1, -1};
    EXPECT_EQ(pickRanks(arb, ranks), -1);
}

TEST(Arbiter, SingleRequesterWins)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{-1, 0, -1, -1};
    EXPECT_EQ(pickRanks(arb, ranks), 1);
}

TEST(Arbiter, HighestRankWins)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{3, 9, 2, 9};
    int w = pickRanks(arb, ranks);
    EXPECT_TRUE(w == 1 || w == 3);
}

TEST(Arbiter, RoundRobinRotatesTies)
{
    Arbiter arb(3);
    std::vector<std::int64_t> ranks{0, 0, 0};
    std::vector<int> wins;
    for (int i = 0; i < 6; ++i)
        wins.push_back(pickRanks(arb, ranks));
    // Every input must win exactly twice over 6 rounds.
    for (int input = 0; input < 3; ++input)
        EXPECT_EQ(std::count(wins.begin(), wins.end(), input), 2)
            << "input " << input;
}

TEST(Arbiter, PointerAdvancesPastWinner)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{0, 0, 0, 0};
    int first = pickRanks(arb, ranks);
    int second = pickRanks(arb, ranks);
    EXPECT_NE(first, second);
}

TEST(Arbiter, RankBeatsRoundRobinPosition)
{
    Arbiter arb(4);
    std::vector<std::int64_t> equal{0, 0, 0, 0};
    pickRanks(arb, equal); // pointer now at 1
    std::vector<std::int64_t> ranks{5, 0, 0, 0};
    EXPECT_EQ(pickRanks(arb, ranks), 0); // rank 5 wins despite pointer
}

TEST(ArbiterDeath, SizeMismatchPanics)
{
    // A request bit past the arbiter's inputs is a wiring bug.
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{0, 0, 0, 0, 0};
    EXPECT_DEATH(pickRanks(arb, ranks), "input 4 of 4");
}

// ---- grantSingle fast path (must be invisible vs pick) ----------------

TEST(Arbiter, GrantSingleMatchesPickResult)
{
    for (unsigned idx = 0; idx < 4; ++idx) {
        Arbiter slow(4);
        Arbiter fast(4);
        std::vector<std::int64_t> ranks{-1, -1, -1, -1};
        ranks[idx] = 0;
        EXPECT_EQ(fast.grantSingle(idx), pickRanks(slow, ranks));
        EXPECT_EQ(fast.pointer(), slow.pointer()) << "idx " << idx;
    }
}

TEST(Arbiter, GrantSingleLeavesSameStateAsPick)
{
    // Interleave sole-requester grants with full contended picks and
    // require the fast-path arbiter to stay in lockstep with one
    // that always takes the slow path.
    Arbiter slow(4);
    Arbiter fast(4);
    const unsigned soles[] = {2, 0, 3, 3, 1};
    for (unsigned idx : soles) {
        std::vector<std::int64_t> ranks{-1, -1, -1, -1};
        ranks[idx] = 5;
        EXPECT_EQ(fast.grantSingle(idx), pickRanks(slow, ranks));

        std::vector<std::int64_t> tie{0, 0, 0, 0};
        EXPECT_EQ(pickRanks(fast, tie), pickRanks(slow, tie))
            << "after " << idx;
        EXPECT_EQ(fast.pointer(), slow.pointer());
    }
}

TEST(Arbiter, GrantSingleWrapsPointer)
{
    Arbiter arb(4);
    EXPECT_EQ(arb.grantSingle(3), 3);
    EXPECT_EQ(arb.pointer(), 0u); // (3 + 1) % 4
}

TEST(ArbiterDeath, GrantSingleOutOfRangePanics)
{
    Arbiter arb(4);
    EXPECT_DEATH(arb.grantSingle(4), "");
}

// ---- mask pick vs the reference modulo scan ---------------------------

namespace
{

/** Drive a mask Arbiter and the reference scan with the same requests
 * and require the same winner and pointer after every pick. */
void
expectSamePicks(unsigned inputs, Rng &rng, unsigned rounds,
                double requestChance, std::int64_t maxRank)
{
    Arbiter mask(inputs);
    ScanArbiter scan{inputs};
    for (unsigned r = 0; r < rounds; ++r) {
        std::vector<std::int64_t> ranks(inputs, -1);
        for (unsigned i = 0; i < inputs; ++i)
            if (rng.chance(requestChance))
                ranks[i] = static_cast<std::int64_t>(
                    rng.range(static_cast<std::uint64_t>(maxRank) + 1));
        const int want = scan.pick(ranks);
        ASSERT_EQ(pickRanks(mask, ranks), want)
            << inputs << " inputs, round " << r;
        ASSERT_EQ(mask.pointer(), scan.pointer)
            << inputs << " inputs, round " << r;
    }
}

} // namespace

TEST(Arbiter, MaskPickMatchesScanOnRandomRequests)
{
    Rng rng(12345);
    for (unsigned inputs : {1u, 2u, 5u, 6u, 16u, 30u, 63u, 64u, 65u, 80u})
        for (double chance : {0.1, 0.5, 0.9})
            expectSamePicks(inputs, rng, 400, chance, 6);
}

TEST(Arbiter, MaskPickMatchesScanWithAllEqualRanks)
{
    Rng rng(7);
    for (unsigned inputs : {3u, 6u, 80u})
        expectSamePicks(inputs, rng, 300, 0.6, 0);
}

TEST(Arbiter, MaskPickMatchesScanOnSingleBitMasks)
{
    // Every single requester, from every pointer position (set by a
    // preceding grant), including the wrap past the last input.
    for (unsigned inputs : {1u, 5u, 64u, 80u}) {
        for (unsigned from = 0; from < inputs; ++from) {
            for (unsigned idx = 0; idx < inputs; ++idx) {
                Arbiter mask(inputs);
                ScanArbiter scan{inputs};
                mask.grantSingle(from);
                scan.pointer = (from + 1) % inputs;
                std::vector<std::int64_t> ranks(inputs, -1);
                ranks[idx] = 3;
                ASSERT_EQ(pickRanks(mask, ranks), scan.pick(ranks));
                ASSERT_EQ(mask.pointer(), scan.pointer);
            }
        }
    }
}

TEST(Arbiter, MaskPickWrapsPastPointer)
{
    // Pointer at 79 of 80: the tie among 2, 40 and 79 goes to 79, the
    // next one wraps to 2.
    Arbiter arb(80);
    arb.grantSingle(78);
    std::vector<std::int64_t> ranks(80, -1);
    ranks[2] = ranks[40] = ranks[79] = 4;
    EXPECT_EQ(pickRanks(arb, ranks), 79);
    EXPECT_EQ(arb.pointer(), 0u);
    EXPECT_EQ(pickRanks(arb, ranks), 2);
    EXPECT_EQ(pickRanks(arb, ranks), 40);
}

// ---- equal-rank pick vs pick ------------------------------------------

TEST(Arbiter, PickEqualMatchesPickWithConstantRank)
{
    // Random masks of up to 32 inputs (the SA and NI arbiters) and of
    // the VA's 80 inputs and full 128-bit ReqMask, from every pointer
    // position (set by a preceding grant), against pick() with every
    // requester at one rank.
    Rng rng(2024);
    std::vector<unsigned> sizes;
    for (unsigned n = 1; n <= 32; ++n)
        sizes.push_back(n);
    sizes.insert(sizes.end(), {80u, ReqMask::capacity});
    for (unsigned inputs : sizes) {
        for (unsigned from = 0; from < inputs; ++from) {
            for (unsigned round = 0; round < 8; ++round) {
                ReqMask req;
                for (unsigned i = 0; i < inputs; ++i)
                    if (rng.chance(round % 2 == 0 ? 0.2 : 0.7))
                        req.set(i);
                const std::int64_t rank = round % 4 == 0 ? 0 : 5;
                Arbiter equal(inputs);
                Arbiter ranked(inputs);
                equal.grantSingle(from);
                ranked.grantSingle(from);
                ASSERT_EQ(equal.pickEqual(req),
                          ranked.pick(req, [&](unsigned) { return rank; }))
                    << inputs << " inputs, pointer past " << from;
                ASSERT_EQ(equal.pointer(), ranked.pointer())
                    << inputs << " inputs, pointer past " << from;
            }
        }
    }
}

TEST(Arbiter, PickEqualRotatesAndReportsNoRequest)
{
    Arbiter arb(6);
    ReqMask req;
    req.set(1);
    req.set(4);
    EXPECT_EQ(arb.pickEqual(req), 1);
    EXPECT_EQ(arb.pickEqual(req), 4);
    EXPECT_EQ(arb.pickEqual(req), 1); // wraps past the last requester
    EXPECT_EQ(arb.pointer(), 2u);
    EXPECT_EQ(arb.pickEqual(ReqMask()), -1);
    EXPECT_EQ(arb.pointer(), 2u);
}

TEST(ArbiterDeath, PickEqualOutOfRangePanics)
{
    Arbiter arb(4);
    ReqMask req;
    req.set(0);
    req.set(5);
    EXPECT_DEATH((void)arb.pickEqual(req), "input 5");
}

// ---- LPA (Figure 9) ---------------------------------------------------

namespace
{
OcorConfig
enabledCfg()
{
    OcorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

LpaInput
lockInput(const OcorConfig &cfg, unsigned rtr, std::uint64_t prog)
{
    LpaInput in;
    in.valid = true;
    in.fields = makePriority(cfg, PriorityClass::LockTry, rtr, prog);
    return in;
}

LpaInput
normalInput()
{
    LpaInput in;
    in.valid = true;
    return in;
}

/** Lock tries across the RTR and progress ranges, a wakeup and a
 * normal packet. */
std::vector<PriorityFields>
rankSamples(const OcorConfig &cfg)
{
    std::vector<PriorityFields> fields;
    for (unsigned rtr : {1u, 17u, 64u, 128u})
        for (std::uint64_t prog : {0u, 5u, 40u})
            fields.push_back(
                makePriority(cfg, PriorityClass::LockTry, rtr, prog));
    fields.push_back(makePriority(cfg, PriorityClass::Wakeup, 1, 0));
    fields.push_back(PriorityFields{}); // normal
    return fields;
}
} // namespace

TEST(Lpa, EmptyInputsYieldNothing)
{
    auto cfg = enabledCfg();
    LpaResult r = lpaSelect(cfg, {});
    EXPECT_EQ(r.indexMask, 0u);
    EXPECT_EQ(r.highestLevel, 0u);
}

TEST(Lpa, OnlyNormalPacketsTieAtLevelZero)
{
    auto cfg = enabledCfg();
    LpaResult r = lpaSelect(cfg, {normalInput(), normalInput()});
    EXPECT_EQ(r.highestLevel, 0u);
    EXPECT_EQ(r.indexMask, 0b11u);
}

TEST(Lpa, FigureNineExample)
{
    // Three packets with priorities high, high, middle: the LPA
    // reports the highest level and the index mask "110"-style
    // (inputs 0 and 1).
    auto cfg = enabledCfg();
    auto high1 = lockInput(cfg, 1, 0);
    auto high2 = lockInput(cfg, 1, 0);
    auto mid = lockInput(cfg, 64, 0);
    LpaResult r = lpaSelect(cfg, {high1, high2, mid});
    EXPECT_EQ(r.indexMask, 0b011u);
    EXPECT_NE(r.highestLevel, 0u);
}

TEST(Lpa, CheckBitGatesPriority)
{
    // A lock packet always beats normal packets.
    auto cfg = enabledCfg();
    LpaResult r = lpaSelect(cfg, {normalInput(),
                                  lockInput(cfg, 128, 100)});
    EXPECT_EQ(r.indexMask, 0b10u);
}

TEST(Lpa, SlowProgressFiltersFirst)
{
    auto cfg = enabledCfg();
    auto fast_urgent = lockInput(cfg, 1, 100); // fast thread, low RTR
    auto slow_relaxed = lockInput(cfg, 128, 0); // slow thread
    LpaResult r = lpaSelect(cfg, {fast_urgent, slow_relaxed});
    EXPECT_EQ(r.indexMask, 0b10u) << "slow progress must win";
}

TEST(Lpa, DisabledTreatsAllAsNormal)
{
    OcorConfig off; // disabled
    OcorConfig on = enabledCfg();
    LpaInput a;
    a.valid = true;
    a.fields = makePriority(on, PriorityClass::LockTry, 1, 0);
    LpaResult r = lpaSelect(off, {a, normalInput()});
    EXPECT_EQ(r.highestLevel, 0u);
    EXPECT_EQ(r.indexMask, 0b11u);
}

TEST(Lpa, InvalidInputsExcluded)
{
    auto cfg = enabledCfg();
    LpaInput invalid;
    invalid.valid = false;
    invalid.fields = makePriority(cfg, PriorityClass::LockTry, 1, 0);
    LpaResult r = lpaSelect(cfg, {invalid, lockInput(cfg, 128, 0)});
    EXPECT_EQ(r.indexMask, 0b10u);
}

TEST(Lpa, AgreesWithPriorityRankOrdering)
{
    // Property: for any pair of candidate packets, the LPA winner is
    // the one priorityRank() ranks higher (or both on a tie).
    auto cfg = enabledCfg();
    const std::vector<PriorityFields> fields = rankSamples(cfg);
    for (const auto &fa : fields) {
        for (const auto &fb : fields) {
            LpaInput a{true, fa}, b{true, fb};
            LpaResult r = lpaSelect(cfg, {a, b});
            auto ra = priorityRank(cfg, fa);
            auto rb = priorityRank(cfg, fb);
            if (ra > rb)
                EXPECT_EQ(r.indexMask, 0b01u);
            else if (rb > ra)
                EXPECT_EQ(r.indexMask, 0b10u);
            else
                EXPECT_EQ(r.indexMask, 0b11u);
        }
    }
}

TEST(Lpa, LevelsFromSeparateCallsOrderAsPriorityRank)
{
    // The global stage compares highestLevel across input channels,
    // so levels from separate calls must order packets exactly as
    // priorityRank() does, up to the top of the extended level scale
    // (past 64 with 8 progress levels).
    auto cfg = enabledCfg();
    const std::vector<PriorityFields> fields = rankSamples(cfg);
    for (const auto &fa : fields) {
        for (const auto &fb : fields) {
            const auto la =
                lpaSelect(cfg, {LpaInput{true, fa}}).highestLevel;
            const auto lb =
                lpaSelect(cfg, {LpaInput{true, fb}}).highestLevel;
            const auto ra = priorityRank(cfg, fa);
            const auto rb = priorityRank(cfg, fb);
            EXPECT_EQ(la < lb, ra < rb) << la << " vs " << lb;
            EXPECT_EQ(la == lb, ra == rb) << la << " vs " << lb;
        }
    }
}
