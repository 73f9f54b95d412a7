/**
 * @file
 * Unit tests for run metrics and the timeline recorder.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "same_run.hh"
#include "sim/metrics.hh"

using namespace ocor;

namespace
{
RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.roiFinish = 1000;
    m.threads = 2;
    ThreadCounters a;
    a.computeCycles = 500;
    a.csCycles = 100;
    a.blockedHeldCycles = 150;
    a.blockedIdleCycles = 250;
    a.acquisitions = 10;
    a.spinWins = 7;
    a.sleepWins = 3;
    a.sleeps = 3;
    ThreadCounters b;
    b.computeCycles = 300;
    b.csCycles = 100;
    b.blockedHeldCycles = 250;
    b.blockedIdleCycles = 350;
    b.acquisitions = 10;
    b.spinWins = 2;
    b.sleepWins = 8;
    b.sleeps = 8;
    m.perThread = {a, b};
    m.packetsInjected = 2000;
    m.lockPacketsInjected = 400;
    return m;
}
} // namespace

TEST(RunMetrics, Sums)
{
    RunMetrics m = sampleMetrics();
    EXPECT_EQ(m.totalCompute(), 800u);
    EXPECT_EQ(m.totalCs(), 200u);
    EXPECT_EQ(m.totalBlockedHeld(), 400u);
    EXPECT_EQ(m.totalCoh(), 600u);
    EXPECT_EQ(m.totalBlocked(), 1000u);
    EXPECT_EQ(m.totalAcquisitions(), 20u);
    EXPECT_EQ(m.totalSpinWins(), 9u);
    EXPECT_EQ(m.totalSleeps(), 11u);
}

TEST(RunMetrics, Percentages)
{
    RunMetrics m = sampleMetrics();
    // Thread-time = 2 threads x 1000 cycles.
    EXPECT_DOUBLE_EQ(m.cohPct(), 30.0);
    EXPECT_DOUBLE_EQ(m.csPct(), 10.0);
    EXPECT_DOUBLE_EQ(m.blockedPct(), 50.0);
    EXPECT_DOUBLE_EQ(m.spinWinPct(), 45.0);
}

TEST(RunMetrics, Rates)
{
    RunMetrics m = sampleMetrics();
    EXPECT_DOUBLE_EQ(m.csAccessRate(), 0.4);   // 400 / 1000
    EXPECT_DOUBLE_EQ(m.netUtilization(4), 0.5); // 2000/(1000*4)
}

TEST(RunMetrics, EmptyIsAllZero)
{
    RunMetrics m;
    EXPECT_DOUBLE_EQ(m.cohPct(), 0.0);
    EXPECT_DOUBLE_EQ(m.spinWinPct(), 0.0);
    EXPECT_DOUBLE_EQ(m.csAccessRate(), 0.0);
}

TEST(RunMetrics, EveryFieldTakesPartInEquality)
{
    // Change one field at a time through the lists: each change must
    // break ==, and the comparison helper must name that field.
    const RunMetrics base = sampleMetrics();
    ASSERT_TRUE(sameRun(base, base));
    auto expectNamed = [&](const RunMetrics &m, const std::string &name) {
        EXPECT_FALSE(m == base) << name;
        const std::string diff = firstDifference(base, m);
        EXPECT_EQ(diff.substr(0, diff.find(':')), name) << diff;
    };
    unsigned changed = 0;
    RunMetrics::forEachField([&](const char *name, auto f) {
        if constexpr (isPerThreadField<decltype(f)>) {
            for (std::size_t t = 0; t < base.perThread.size(); ++t)
                ThreadCounters::forEachField([&](const char *g_name,
                                                 auto g) {
                    RunMetrics m = base;
                    m.perThread[t].*g += 1;
                    expectNamed(m, std::string(name) + "[" +
                                       std::to_string(t) + "]." +
                                       g_name);
                    ++changed;
                });
            RunMetrics m = base;
            m.perThread.pop_back();
            expectNamed(m, std::string(name) + " size");
        } else {
            RunMetrics m = base;
            if constexpr (std::is_same_v<decltype(m.*f), bool &>)
                m.*f = !(m.*f);
            else
                m.*f += 1;
            expectNamed(m, name);
        }
        ++changed;
    });
    // 28 scalar fields, per_thread's length and 2 x 14 counters.
    EXPECT_EQ(changed, 28u + 1u + 2u * 14u);
}

TEST(ThreadCounters, PlusEqualsAddsEveryCounter)
{
    ThreadCounters a, b, want;
    std::uint64_t v = 1;
    ThreadCounters::forEachField([&](const char *, auto f) {
        a.*f = v;
        b.*f = 10 * v;
        want.*f = 11 * v;
        ++v;
    });
    a += b;
    EXPECT_EQ(a, want);

    RunMetrics m;
    m.perThread = {b, b, b};
    ThreadCounters thrice;
    thrice += b;
    thrice += b;
    thrice += b;
    EXPECT_EQ(m.totals(), thrice);
}

TEST(Timeline, RecordAndQuery)
{
    Timeline t(2, 100);
    EXPECT_TRUE(t.enabled());
    t.record(0, 5, 6, SegClass::Parallel);
    t.record(1, 5, 8, SegClass::Blocked);
    EXPECT_EQ(t.at(0, 5), SegClass::Parallel);
    EXPECT_EQ(t.at(1, 5), SegClass::Blocked);
    EXPECT_EQ(t.at(1, 7), SegClass::Blocked);
    EXPECT_EQ(t.at(1, 8), SegClass::Done) << "the span is half-open";
    EXPECT_EQ(t.at(0, 6), SegClass::Done) << "unset defaults to Done";
}

TEST(Timeline, OutOfRangeRecordIgnored)
{
    Timeline t(2, 10);
    t.record(5, 5, 6, SegClass::Cs);   // bad thread
    t.record(0, 50, 60, SegClass::Cs); // beyond horizon
    t.record(0, 4, 4, SegClass::Cs);   // empty span
    for (Cycle c = 0; c < 10; ++c)
        EXPECT_EQ(t.at(0, c), SegClass::Done) << c;
}

TEST(Timeline, FractionCounts)
{
    Timeline t(1, 10);
    t.record(0, 0, 4, SegClass::Blocked);
    // A span past the horizon is clipped to it.
    t.record(0, 4, 25, SegClass::Parallel);
    EXPECT_DOUBLE_EQ(t.fraction(SegClass::Blocked), 0.4);
    EXPECT_DOUBLE_EQ(t.fraction(SegClass::Parallel), 0.6);
    EXPECT_DOUBLE_EQ(t.fraction(SegClass::Blocked, 4), 1.0);
}

TEST(Timeline, DisabledByDefault)
{
    Timeline t;
    EXPECT_FALSE(t.enabled());
    EXPECT_DOUBLE_EQ(t.fraction(SegClass::Cs), 0.0);
}

TEST(SegClass, MapsThreadStates)
{
    EXPECT_EQ(segClassOf(ThreadState::Running), SegClass::Parallel);
    EXPECT_EQ(segClassOf(ThreadState::Spinning), SegClass::Blocked);
    EXPECT_EQ(segClassOf(ThreadState::SleepPrep), SegClass::Blocked);
    EXPECT_EQ(segClassOf(ThreadState::Sleeping), SegClass::Blocked);
    EXPECT_EQ(segClassOf(ThreadState::Waking), SegClass::Blocked);
    EXPECT_EQ(segClassOf(ThreadState::InCS), SegClass::Cs);
    EXPECT_EQ(segClassOf(ThreadState::Finished), SegClass::Done);
}
