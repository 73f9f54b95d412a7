/**
 * @file
 * Tests for the Simulator: accounting oracle, ROI bookkeeping,
 * timeline recording, determinism, the forward-progress watchdog.
 */

#include <gtest/gtest.h>

#include <string>

#include "same_run.hh"
#include "sim/simulator.hh"

using namespace ocor;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    return cfg;
}

std::vector<Program>
contendedPrograms(unsigned n, unsigned iters = 3)
{
    std::vector<Program> out;
    for (unsigned t = 0; t < n; ++t) {
        ProgramBuilder b;
        for (unsigned i = 0; i < iters; ++i)
            b.compute(100 + 37 * t).lock(0).compute(50).unlock(0);
        out.push_back(b.build());
    }
    return out;
}

} // namespace

TEST(Simulator, AccountingAddsUpToRoi)
{
    auto cfg = smallConfig();
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    RunMetrics m = sim.run();
    ASSERT_GT(m.roiFinish, 0u);
    ASSERT_LT(m.roiFinish, cfg.maxCycles);

    // Per thread: compute + cs + blocked <= roiFinish (the remainder
    // is post-finish idle time of early finishers).
    for (const auto &t : m.perThread) {
        std::uint64_t busy = t.computeCycles + t.csCycles
            + t.blockedHeldCycles + t.blockedIdleCycles;
        EXPECT_LE(busy, m.roiFinish + 1);
        EXPECT_GT(busy, 0u);
    }
}

TEST(Simulator, AcquisitionCountsMatchPrograms)
{
    auto cfg = smallConfig();
    Simulator sim(cfg, contendedPrograms(4, 5), BgTrafficConfig{});
    RunMetrics m = sim.run();
    EXPECT_EQ(m.totalAcquisitions(), 4u * 5u);
    for (const auto &t : m.perThread)
        EXPECT_EQ(t.spinWins + t.sleepWins, t.acquisitions);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto cfg = smallConfig();
    cfg.seed = 77;
    BgTrafficConfig bg;
    bg.rate = 0.02;
    Simulator a(cfg, contendedPrograms(4), bg);
    Simulator b(cfg, contendedPrograms(4), bg);
    RunMetrics ma = a.run();
    RunMetrics mb = b.run();
    EXPECT_TRUE(sameRun(ma, mb));
}

TEST(Simulator, SeedChangesOutcome)
{
    auto cfg = smallConfig();
    BgTrafficConfig bg;
    bg.rate = 0.05;
    cfg.seed = 1;
    Simulator a(cfg, contendedPrograms(4), bg);
    cfg.seed = 2;
    Simulator b(cfg, contendedPrograms(4), bg);
    EXPECT_NE(a.run().packetsInjected, b.run().packetsInjected);
}

TEST(Simulator, TimelineRecordsActivity)
{
    auto cfg = smallConfig();
    SimOptions opts;
    opts.timelineHorizon = 2000;
    opts.timelineThreads = 4;
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{},
                  opts);
    sim.run();
    const Timeline &t = sim.timeline();
    ASSERT_TRUE(t.enabled());
    EXPECT_GT(t.fraction(SegClass::Parallel), 0.0);
    EXPECT_GT(t.fraction(SegClass::Blocked), 0.0);
    EXPECT_GT(t.fraction(SegClass::Cs), 0.0);
}

TEST(Simulator, BlockedSplitsIntoHeldAndIdle)
{
    auto cfg = smallConfig();
    Simulator sim(cfg, contendedPrograms(4, 6), BgTrafficConfig{});
    RunMetrics m = sim.run();
    // With 4 threads hammering one lock there must be both kinds of
    // blocked time: waiting on a running CS and pure handover COH.
    EXPECT_GT(m.totalBlockedHeld(), 0u);
    EXPECT_GT(m.totalCoh(), 0u);
}

TEST(Simulator, MaxCyclesGuardStopsRunaway)
{
    auto cfg = smallConfig();
    cfg.maxCycles = 500; // far too short to finish
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    RunMetrics m = sim.run();
    EXPECT_EQ(m.roiFinish, cfg.maxCycles);
}

TEST(Simulator, ProgressWatchdogFailsFastOnHang)
{
    auto cfg = smallConfig();
    cfg.progressWindow = 30'000;

    Simulator sim(cfg, contendedPrograms(4, 5), BgTrafficConfig{});
    // The lock's home swallows every packet: no LockTry is ever
    // answered, so no thread retires work again.
    const NodeId home =
        sim.system().addressMap().homeOf(cfg.lockRegionBase);
    sim.system().network().setNodeSink(home,
                                       [](const PacketPtr &, Cycle) {});
    RunMetrics m = sim.run();

    EXPECT_TRUE(m.hangDetected);
    EXPECT_LT(m.roiFinish, cfg.maxCycles) << "must fail fast";
    EXPECT_LT(m.totalAcquisitions(), 4u * 5u);
    EXPECT_EQ(m.retransmissions, 0u);
    // The diagnosis names every thread and its lock state.
    const std::string &d = sim.hangDiagnosis();
    ASSERT_FALSE(d.empty());
    EXPECT_NE(d.find("t0:"), std::string::npos);
    EXPECT_NE(d.find("t3:"), std::string::npos);
    EXPECT_NE(d.find("lock=0x"), std::string::npos);
}
