/**
 * @file
 * Run supervision tests (DESIGN.md §12): the runner's one wall-clock
 * deadline. A run that passes it stops at the next poll cycle with
 * its partial metrics flagged cancelled, counts once as a timeout and
 * is never cached; a deadline that never fires is bit-identical to
 * no deadline.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "same_run.hh"
#include "sim/parallel_runner.hh"
#include "workload/benchmarks.hh"

using namespace ocor;

namespace
{

ExperimentConfig
smallExp(unsigned threads = 4, unsigned iters = 2)
{
    ExperimentConfig exp;
    exp.threads = threads;
    exp.iterationsOverride = iters;
    exp.seed = 3;
    return exp;
}

/** Options whose deadline has already passed: the run stops at its
 * first poll cycle. */
Simulator::Options
pastDeadline()
{
    Simulator::Options opts;
    opts.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    return opts;
}

} // namespace

TEST(ParallelRunnerSupervisionTest, DeadlineScalesWithRequestSize)
{
    ParallelRunner runner(1, nullptr, 2.0);

    RunRequest req;
    req.profile = profileByName("ferret");
    req.exp = smallExp(16, 4); // the base configuration
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 2.0);

    req.exp = smallExp(32, 4); // 2x the threads -> 2x the budget
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 4.0);

    req.exp = smallExp(16, 8); // 2x the iterations -> 2x the budget
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 4.0);

    req.exp = smallExp(4, 1); // smaller than base: floored
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 2.0);

    ParallelRunner off(1);
    req.exp = smallExp(64, 20);
    EXPECT_DOUBLE_EQ(off.deadlineFor(req), 0.0);
}

TEST(ParallelRunnerSupervisionTest, CancelledRunReportsCancelled)
{
    // A deadline that has already passed stops the run at the first
    // poll: it winds down with cancelled set instead of simulating
    // to completion.
    RunMetrics m = runOnce(profileByName("ferret"), smallExp(), false,
                           pastDeadline());
    EXPECT_TRUE(m.cancelled);
    EXPECT_FALSE(m.hangDetected);

    RunMetrics full =
        runOnce(profileByName("ferret"), smallExp(), false);
    EXPECT_FALSE(full.cancelled);
    EXPECT_GT(full.roiFinish, m.roiFinish);
}

TEST(ParallelRunnerSupervisionTest, DeadlineMissDegradesGracefully)
{
    // No simulation meets a nanosecond budget. The sweep completes,
    // the slot keeps the partial metrics, and there is no retry.
    ResultCache cache("");
    ParallelRunner runner(2, &cache, 1e-9);

    RunRequest req;
    req.profile = profileByName("ferret");
    req.exp = smallExp(16, 6);
    std::vector<RunMetrics> out = runner.run({req});

    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].cancelled);
    EXPECT_EQ(out[0].threads, 16u);
    EXPECT_EQ(cache.simulationsRun(), 1u); // one attempt
    EXPECT_EQ(runner.runsExecuted(), 1u);
    EXPECT_EQ(runner.timeouts(), 1u);
    EXPECT_EQ(cache.size(), 0u);           // never cached
}

TEST(ParallelRunnerSupervisionTest, GenerousDeadlineIsBitIdentical)
{
    // A deadline that never fires must not perturb results, including
    // one too far off for steady_clock to hold (1e10 s is past its
    // ~292-year range and must not wrap into the past).
    const BenchmarkProfile profile = profileByName("ferret");
    const ExperimentConfig exp = smallExp();
    const RunMetrics reference = runOnce(profile, exp, true);

    for (const double deadline : {300.0, 1e10}) {
        ParallelRunner runner(2, nullptr, deadline);
        RunRequest req;
        req.profile = profile;
        req.exp = exp;
        req.ocorEnabled = true;
        std::vector<RunMetrics> out = runner.run({req});

        ASSERT_EQ(out.size(), 1u) << deadline;
        EXPECT_FALSE(out[0].cancelled) << deadline;
        EXPECT_TRUE(sameRun(out[0], reference)) << deadline;
        EXPECT_EQ(runner.timeouts(), 0u) << deadline;
    }
}

TEST(ParallelRunnerSupervisionTest, CancelledResultsAreNeverCached)
{
    // A deadline stop must not poison the cache: the next request
    // re-simulates instead of recalling partial metrics.
    const std::string path =
        ::testing::TempDir() + "ocor_supervision_cache.tsv";
    std::remove(path.c_str());
    ResultCache cache(path);

    RunMetrics cancelled = cache.get(profileByName("ferret"),
                                     smallExp(), false, pastDeadline());
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(cache.size(), 0u);

    RunMetrics clean =
        cache.get(profileByName("ferret"), smallExp(), false);
    EXPECT_FALSE(clean.cancelled);
    EXPECT_GT(clean.roiFinish, cancelled.roiFinish);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.simulationsRun(), 2u);
    std::remove(path.c_str());
}

TEST(ParallelRunnerSupervisionTest, SupervisedStatsAreRegistered)
{
    ParallelRunner runner(1);
    StatsRegistry reg;
    runner.registerStats(reg);
    EXPECT_TRUE(reg.has("runner.timeouts"));
    EXPECT_TRUE(reg.has("runner.pool.queue_depth"));
    EXPECT_EQ(reg.scalar("runner.timeouts"), 0.0);
    EXPECT_EQ(reg.scalar("runner.pool.queue_depth"), 0.0);
}
