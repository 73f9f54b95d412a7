/**
 * @file
 * Tests for the benches' sweep helpers (bench/bench_util.hh): a pair
 * with an incomplete side (deadline, hang or maxCycles stop) is never
 * printed, an incomplete run is never journaled, and a sweep exits 1
 * when a run hung or reached maxCycles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workload/benchmarks.hh"

using namespace ocor;

namespace
{

/** A profile whose threads all compute past the maxCycles horizon
 * before their first lock. With no background traffic the run jumps
 * to the horizon in poll strides and stops there. */
BenchmarkProfile
pastTheHorizon()
{
    BenchmarkProfile p = profileByName("ferret");
    p.name = "past-horizon";
    // The gap is jittered down to half its mean.
    p.workload.meanGap = 4 * SystemConfig{}.maxCycles;
    p.traffic.rate = 0.0;
    return p;
}

} // namespace

TEST(BenchSweep, CompletePairsDropsEveryIncompleteSide)
{
    // Finishing on the last cycle before the horizon is complete.
    BenchmarkResult clean;
    clean.name = "clean";
    clean.base.roiFinish = SystemConfig{}.maxCycles - 1;
    std::vector<BenchmarkResult> results(4, clean);
    results[1].ocor.hangDetected = true;
    results[2].base.roiFinish = SystemConfig{}.maxCycles;
    results[3].ocor.cancelled = true;

    const std::vector<BenchmarkResult> kept =
        bench::completePairs(results);
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].name, "clean");
}

TEST(BenchSweep, HorizonStopIsNeitherStoredNorPrinted)
{
    const std::string path =
        ::testing::TempDir() + "ocor_horizon_cache.tsv";
    std::remove(path.c_str());
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 1;
    {
        ResultCache cache(path);
        ParallelRunner runner(2, &cache);
        const std::vector<BenchmarkResult> results =
            runner.runSuite({pastTheHorizon()}, exp);

        ASSERT_EQ(results.size(), 1u);
        EXPECT_EQ(results[0].base.roiFinish, SystemConfig{}.maxCycles);
        EXPECT_FALSE(results[0].base.hangDetected);
        EXPECT_FALSE(results[0].base.cancelled);
        EXPECT_TRUE(bench::completePairs(results).empty());
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(runner.incompleteRuns(), 2u);
        EXPECT_EQ(runner.timeouts(), 0u);
        EXPECT_EQ(bench::sweepExitStatus(runner), 1);
    }
    ResultCache reopened(path);
    EXPECT_EQ(reopened.size(), 0u);
    std::remove(path.c_str());
}

TEST(BenchSweep, DeadlineStopsAloneExit75)
{
    ParallelRunner runner(1, nullptr, 1e-9);
    RunRequest req;
    req.profile = profileByName("ferret");
    req.exp.threads = 16;
    req.exp.iterationsOverride = 2;
    runner.run({req});
    EXPECT_EQ(runner.incompleteRuns(), 1u);
    EXPECT_EQ(bench::sweepExitStatus(runner), bench::kExitTimedOut);

    ParallelRunner clean(1);
    EXPECT_EQ(bench::sweepExitStatus(clean), 0);
}
