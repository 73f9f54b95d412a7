/**
 * @file
 * Tests for the experiment runner layer.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

using namespace ocor;

namespace
{

ExperimentConfig
tinyExp()
{
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = 3;
    return exp;
}

} // namespace

TEST(Experiment, MakeSystemConfigAppliesScale)
{
    for (unsigned threads : {4u, 16u, 32u, 64u}) {
        ExperimentConfig exp = tinyExp();
        exp.threads = threads;
        SystemConfig cfg = makeSystemConfig(exp, true);
        EXPECT_EQ(cfg.numThreads, threads);
        EXPECT_EQ(cfg.mesh.numNodes(), threads);
        EXPECT_TRUE(cfg.ocor.enabled);
    }
}

TEST(Experiment, OcorOverrideApplied)
{
    ExperimentConfig exp = tinyExp();
    exp.ocorOverrideSet = true;
    exp.ocorOverride.numRtrLevels = 16;
    SystemConfig cfg = makeSystemConfig(exp, true);
    EXPECT_EQ(cfg.ocor.numRtrLevels, 16u);
    EXPECT_TRUE(cfg.ocor.enabled);
    // The same override with OCOR disabled keeps enabled = false.
    SystemConfig base = makeSystemConfig(exp, false);
    EXPECT_FALSE(base.ocor.enabled);
}

TEST(ExperimentDeathTest, FatalNamesTheRun)
{
    // A configuration error inside runOnce names the run by its
    // cache key, so the failing run of a sweep can be rerun alone.
    ExperimentConfig exp = tinyExp();
    exp.ocorOverrideSet = true;
    exp.ocorOverride.numRtrLevels = 0;
    EXPECT_EXIT(runOnce(profileByName("ferret"), exp, true),
                testing::ExitedWithCode(1),
                "fatal: OcorConfig: numRtrLevels .* in run "
                "\\[ferret 4 1 2 3 0 15\\]");
}

TEST(Experiment, RunOnceCompletesAllWork)
{
    BenchmarkProfile p = profileByName("ferret");
    RunMetrics m = runOnce(p, tinyExp(), false);
    EXPECT_EQ(m.threads, 4u);
    EXPECT_EQ(m.totalAcquisitions(), 8u); // 4 threads x 2 iters
    EXPECT_GT(m.roiFinish, 0u);
}

TEST(Experiment, IterationsOverrideRespected)
{
    BenchmarkProfile p = profileByName("ferret");
    ExperimentConfig exp = tinyExp();
    exp.iterationsOverride = 3;
    RunMetrics m = runOnce(p, exp, false);
    EXPECT_EQ(m.totalAcquisitions(), 12u);
}

TEST(Experiment, ComparisonCarriesProfileMetadata)
{
    BenchmarkProfile p = profileByName("botss");
    BenchmarkResult r = runComparison(p, tinyExp());
    EXPECT_EQ(r.name, "botss");
    EXPECT_EQ(r.suite, "OMP2012");
    EXPECT_TRUE(r.highCsRate);
    EXPECT_TRUE(r.highNetUtil);
    EXPECT_GT(r.base.roiFinish, 0u);
    EXPECT_GT(r.ocor.roiFinish, 0u);
}

TEST(Experiment, ImprovementFormulaEdgeCases)
{
    BenchmarkResult r;
    // Zero baselines must not divide by zero.
    EXPECT_DOUBLE_EQ(r.cohImprovementPct(), 0.0);
    EXPECT_DOUBLE_EQ(r.roiImprovementPct(), 0.0);

    r.base.roiFinish = 200;
    r.ocor.roiFinish = 150;
    EXPECT_DOUBLE_EQ(r.roiImprovementPct(), 25.0);

    ThreadCounters c;
    c.blockedIdleCycles = 100;
    r.base.perThread.push_back(c);
    c.blockedIdleCycles = 60;
    r.ocor.perThread.push_back(c);
    EXPECT_DOUBLE_EQ(r.cohImprovementPct(), 40.0);
}

TEST(Experiment, RunSuiteCoversAllProfiles)
{
    // Two tiny profiles to keep runtime bounded.
    std::vector<BenchmarkProfile> profiles = {
        profileByName("imag"), profileByName("ferret")};
    auto results = runSuite(profiles, tinyExp());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].name, "imag");
    EXPECT_EQ(results[1].name, "ferret");
}
