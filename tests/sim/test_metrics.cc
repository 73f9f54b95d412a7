/**
 * @file
 * Unit tests for run metrics and the timeline recorder.
 */

#include <gtest/gtest.h>

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
