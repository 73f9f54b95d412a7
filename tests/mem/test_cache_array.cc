/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "mem/cache_array.hh"

using namespace ocor;

TEST(CacheArray, MissThenHit)
{
    CacheArray c(4, 2, 128);
    EXPECT_EQ(c.find(0x100), nullptr);
    CacheLine *slot = c.victimFor(0x100);
    ASSERT_NE(slot, nullptr);
    c.fill(slot, 0x100, CoherState::S, 1);
    CacheLine *hit = c.find(0x100);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->state, CoherState::S);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, VictimPrefersInvalid)
{
    CacheArray c(1, 2, 128);
    c.fill(c.victimFor(0x000), 0x000, CoherState::M, 1);
    CacheLine *v = c.victimFor(0x080);
    EXPECT_EQ(v->state, CoherState::I)
        << "must pick the empty way first";
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(1, 2, 128); // one set, two ways
    c.fill(c.victimFor(0x000), 0x000, CoherState::S, 1);
    c.fill(c.victimFor(0x080), 0x080, CoherState::S, 2);
    // Touch the older line so the newer becomes LRU.
    c.touch(c.find(0x000), 3);
    CacheLine *v = c.victimFor(0x100);
    ASSERT_NE(v->state, CoherState::I);
    EXPECT_EQ(v->addr, 0x080u);
}

TEST(CacheArray, SetIndexingSeparatesSets)
{
    CacheArray c(4, 1, 128);
    // Lines 0x000, 0x080, 0x100, 0x180 map to sets 0..3.
    for (Addr a : {0x000u, 0x080u, 0x100u, 0x180u})
        c.fill(c.victimFor(a), a, CoherState::S, 1);
    EXPECT_EQ(c.validCount(), 4u);
    for (Addr a : {0x000u, 0x080u, 0x100u, 0x180u})
        EXPECT_NE(c.find(a), nullptr);
}

TEST(CacheArray, ConflictWithinSet)
{
    CacheArray c(4, 1, 128);
    // 0x000 and 0x200 share set 0 in a 4-set cache.
    c.fill(c.victimFor(0x000), 0x000, CoherState::S, 1);
    CacheLine *v = c.victimFor(0x200);
    ASSERT_NE(v->state, CoherState::I);
    EXPECT_EQ(v->addr, 0x000u);
}

TEST(CacheArray, StateNames)
{
    EXPECT_STREQ(coherStateName(CoherState::I), "I");
    EXPECT_STREQ(coherStateName(CoherState::S), "S");
    EXPECT_STREQ(coherStateName(CoherState::E), "E");
    EXPECT_STREQ(coherStateName(CoherState::O), "O");
    EXPECT_STREQ(coherStateName(CoherState::M), "M");
}

TEST(CacheArrayDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(CacheArray(3, 2, 128), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(CacheArray(4, 0, 128), ::testing::ExitedWithCode(1),
                "ways");
}

TEST(CacheArray, CapacityBounded)
{
    CacheArray c(4, 2, 128);
    for (Addr line = 0; line < 64; ++line) {
        Addr a = line * 128;
        if (!c.find(a))
            c.fill(c.victimFor(a), a, CoherState::S, line);
    }
    EXPECT_EQ(c.validCount(), 8u) << "sets x ways bound";
}

TEST(CacheArray, NeverFilledHoldsNothing)
{
    CacheArray c(512, 16, 128);
    for (Addr line = 0; line < 2048; line += 7)
        EXPECT_EQ(c.find(line * 128), nullptr);
    // A victim slot is handed out empty and stays so until filled.
    EXPECT_EQ(c.victimFor(0x80)->state, CoherState::I);
    EXPECT_EQ(c.find(0x80), nullptr);
    EXPECT_EQ(c.validCount(), 0u);
}

namespace
{

/** Reference model: every way allocated up front, with a valid bit
 * kept beside the state (the array's layout before its rows became
 * lazy). Returns way indices within the set. */
struct DenseArray
{
    struct Line
    {
        Addr addr = 0;
        CoherState state = CoherState::I;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned sets, ways, lineBytes;
    std::vector<Line> lines;

    DenseArray(unsigned s, unsigned w, unsigned lb)
        : sets(s), ways(w), lineBytes(lb), lines(s * w)
    {}

    unsigned setOf(Addr a) const { return (a / lineBytes) & (sets - 1); }
    Line &at(Addr a, unsigned way) { return lines[setOf(a) * ways + way]; }

    int
    find(Addr a)
    {
        for (unsigned w = 0; w < ways; ++w)
            if (at(a, w).valid && at(a, w).addr == a)
                return static_cast<int>(w);
        return -1;
    }

    unsigned
    victimFor(Addr a)
    {
        int lru = -1;
        for (unsigned w = 0; w < ways; ++w) {
            const Line &l = at(a, w);
            if (!l.valid)
                return w;
            if (lru < 0 || l.lastUse < at(a, lru).lastUse)
                lru = static_cast<int>(w);
        }
        return static_cast<unsigned>(lru);
    }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const Line &l : lines)
            n += l.valid ? 1 : 0;
        return n;
    }
};

} // namespace

TEST(CacheArray, LazyRowsMatchDenseReference)
{
    // A seeded stream of lookups, fills, touches and invalidations
    // over a pool of lines three times the capacity. Use ticks come
    // from a tiny range, so LRU ties are common. Both arrays must
    // agree on every hit and every victim way.
    const unsigned sets = 4, ways = 3;
    CacheArray lazy(sets, ways, 128);
    DenseArray dense(sets, ways, 128);
    std::map<unsigned, CacheLine *> rowBase; // way 0 of each set
    std::mt19937_64 rng(20261018);
    auto pick = [&](unsigned n) {
        return static_cast<unsigned>(rng() % n);
    };

    for (int step = 0; step < 20000; ++step) {
        const Addr a = Addr{pick(3 * sets * ways)} * 128;
        const unsigned set = dense.setOf(a);
        const int hit = dense.find(a);
        CacheLine *got = lazy.find(a);
        ASSERT_EQ(got != nullptr, hit >= 0) << "step " << step;
        if (got) {
            ASSERT_EQ(got, rowBase.at(set) + hit) << "step " << step;
            ASSERT_EQ(got->state, dense.at(a, hit).state);
            ASSERT_EQ(got->lastUse, dense.at(a, hit).lastUse);
        }

        const unsigned op = pick(4);
        const std::uint64_t tick = pick(3);
        if (got && op == 0) {
            lazy.touch(got, tick);
            dense.at(a, hit).lastUse = tick;
        } else if (got && op == 1) {
            got->state = CoherState::I;
            dense.at(a, hit) = DenseArray::Line{};
        } else if (!got && op != 3) {
            const unsigned way = dense.victimFor(a);
            CacheLine *v = lazy.victimFor(a);
            if (!rowBase.count(set)) {
                ASSERT_EQ(way, 0u) << "a fresh set fills way 0 first";
                rowBase[set] = v;
            }
            ASSERT_EQ(v, rowBase[set] + way) << "step " << step;
            const CoherState st = static_cast<CoherState>(1 + pick(4));
            lazy.fill(v, a, st, tick);
            dense.at(a, way) = {a, st, tick, true};
        }
        ASSERT_EQ(lazy.validCount(), dense.validCount())
            << "step " << step;
    }
    EXPECT_EQ(rowBase.size(), sets);
}
