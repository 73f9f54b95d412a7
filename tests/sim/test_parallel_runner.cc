/**
 * @file
 * Tests for the parallel experiment engine: the headline property is
 * that fanning a suite across worker threads is bit-identical to
 * running it serially (the simulator shares no mutable state between
 * runs), so parallelism can never change a figure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "same_run.hh"
#include "sim/parallel_runner.hh"

using namespace ocor;

namespace
{

ExperimentConfig
tinyExp(std::uint64_t seed)
{
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = seed;
    return exp;
}

std::vector<BenchmarkProfile>
tinyProfiles()
{
    return {profileByName("imag"), profileByName("ferret"),
            profileByName("botss")};
}

} // namespace

TEST(ParallelRunner, SuiteBitIdenticalToSerial)
{
    std::vector<BenchmarkProfile> profiles = tinyProfiles();
    for (std::uint64_t seed : {3ull, 11ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ExperimentConfig exp = tinyExp(seed);
        std::vector<BenchmarkResult> serial =
            runSuite(profiles, exp);
        ParallelRunner runner(4);
        std::vector<BenchmarkResult> par = runner.runSuite(profiles, exp);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(par[i].name, serial[i].name);
            EXPECT_TRUE(sameRun(par[i].base, serial[i].base))
                << serial[i].name << " base";
            EXPECT_TRUE(sameRun(par[i].ocor, serial[i].ocor))
                << serial[i].name << " ocor";
        }
    }
}

TEST(ParallelRunner, ResultsComeBackInRequestOrder)
{
    // Heterogeneous batch: big runs first, tiny runs last. The tiny
    // runs finish first; results must still land at their request
    // index.
    std::vector<RunRequest> reqs;
    for (std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
        RunRequest r;
        r.profile = profileByName("can");
        r.exp = tinyExp(seed);
        r.exp.iterationsOverride = seed == 5 ? 6 : 1;
        reqs.push_back(r);
    }
    ParallelRunner runner(4);
    std::vector<RunMetrics> out = runner.run(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        RunMetrics ref = runOnce(reqs[i].profile, reqs[i].exp,
                                 reqs[i].ocorEnabled);
        EXPECT_TRUE(sameRun(out[i], ref)) << "request " << i;
    }
}

TEST(ParallelRunner, RunTimingAndPoolStatsAccumulate)
{
    ParallelRunner runner(2);
    std::vector<BenchmarkProfile> profiles = tinyProfiles();
    runner.runSuite(profiles, tinyExp(3));

    // 3 profiles x {base, ocor} = 6 timed runs.
    EXPECT_EQ(runner.runsExecuted(), 6u);
    SampleStat rs = runner.runSeconds();
    EXPECT_EQ(rs.count(), 6u);
    EXPECT_GT(rs.max(), 0.0);
    EXPECT_GE(runner.pool().tasksExecuted(), 6u);
    EXPECT_GT(runner.pool().totalBusyNs(), 0u);
    // Utilization is a fraction of jobs x wall; with a generous wall
    // estimate it must land in (0, 1].
    double util = runner.utilization(rs.sum());
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);

    StatsRegistry reg;
    runner.registerStats(reg);
    EXPECT_TRUE(reg.has("runner.pool.size"));
    EXPECT_TRUE(reg.has("runner.pool.worker0.busy_ns"));
    EXPECT_TRUE(reg.has("runner.pool.worker1.busy_ns"));
    EXPECT_EQ(reg.scalar("runner.pool.size"), 2.0);
    EXPECT_EQ(reg.scalar("runner.runs"), 6.0);
    // Per-worker busy time sums to the pool total.
    EXPECT_DOUBLE_EQ(reg.scalar("runner.pool.worker0.busy_ns")
                         + reg.scalar("runner.pool.worker1.busy_ns"),
                     reg.scalar("runner.pool.busy_ns_total"));
}

TEST(ParallelRunner, SharedCacheDeduplicatesAcrossRequests)
{
    std::string path = ::testing::TempDir()
        + "ocor_runner_cache_test.tsv";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        ParallelRunner runner(4, &cache);
        std::vector<BenchmarkProfile> profiles = tinyProfiles();
        ExperimentConfig exp = tinyExp(3);
        runner.runSuite(profiles, exp);
        // 3 profiles x {base, ocor} = 6 distinct configurations.
        EXPECT_EQ(cache.simulationsRun(), 6u);
        // A second identical sweep is served from memory.
        std::vector<BenchmarkResult> again =
            runner.runSuite(profiles, exp);
        EXPECT_EQ(cache.simulationsRun(), 6u);
        EXPECT_EQ(again.size(), 3u);
    }
    std::remove(path.c_str());
}
