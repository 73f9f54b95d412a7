/**
 * @file
 * Simulation-loop identity tests (DESIGN.md §13).
 *
 * The run loop skips quiet spans: it jumps to the next cycle some
 * component is due and charges the skipped cycles in bulk. With the
 * invariant checkers armed it processes every cycle instead (the
 * checkers observe per-cycle state). Skipping exists purely for
 * wall-clock speed, so a checked run is the reference: an unchecked
 * run must match it field by field over randomized configurations
 * (mesh size, thread count, OCOR on/off, background traffic, COH
 * ledger on), sample for sample on the execution timeline and byte
 * for byte on trace exports, while actually skipping cycles.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "same_run.hh"
#include "sim/simulator.hh"

using namespace ocor;

namespace
{

std::vector<Program>
contendedPrograms(unsigned n, unsigned iters)
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

struct LoopRun
{
    RunMetrics m;
    WallProfile wall;
    Timeline timeline;
};

/** One run with every checker armed (@p checked: every cycle is
 * processed) or none (quiet spans are skipped), recording every
 * thread's first @p horizon cycles on the timeline (0 = off). */
LoopRun
runWith(SystemConfig cfg, const BgTrafficConfig &bg, bool checked,
        unsigned iters = 3, bool ledger = false, Cycle horizon = 0)
{
    cfg.check.checks = checked ? allChecksMask() : 0;
    SimOptions opts;
    opts.cohLedger = ledger;
    opts.timelineHorizon = horizon;
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, iters), bg,
                  opts);
    LoopRun r;
    r.m = sim.run();
    r.wall = sim.wallProfile();
    r.timeline = sim.timeline();
    return r;
}

/** Two timelines agree sample for sample. */
void
expectSameTimeline(const Timeline &a, const Timeline &b)
{
    ASSERT_EQ(a.threads(), b.threads());
    ASSERT_EQ(a.horizon(), b.horizon());
    for (ThreadId t = 0; t < a.threads(); ++t)
        for (Cycle c = 0; c < a.horizon(); ++c)
            ASSERT_EQ(a.at(t, c), b.at(t, c))
                << "thread " << t << " cycle " << c;
}

/**
 * Checked and unchecked runs of one configuration agree field by
 * field and on every timeline sample of every thread over the whole
 * run (a probe run sizes the horizon); only the unchecked one skipped
 * cycles.
 */
void
expectSkippingIsExact(const SystemConfig &cfg,
                      const BgTrafficConfig &bg, unsigned iters = 3,
                      bool ledger = false)
{
    const Cycle horizon =
        runWith(cfg, bg, false, iters, ledger).m.roiFinish + 1;
    const LoopRun checked =
        runWith(cfg, bg, true, iters, ledger, horizon);
    const LoopRun unchecked =
        runWith(cfg, bg, false, iters, ledger, horizon);
    EXPECT_TRUE(sameRun(checked.m, unchecked.m));
    ASSERT_EQ(checked.timeline.threads(), cfg.numThreads);
    ASSERT_LT(checked.m.roiFinish, horizon)
        << "the timeline must cover the whole run";
    expectSameTimeline(checked.timeline, unchecked.timeline);
    EXPECT_EQ(checked.wall.cyclesSkipped, 0u);
    EXPECT_GT(unchecked.wall.cyclesSkipped, 0u)
        << "the unchecked run processed every cycle; the comparison "
           "proves nothing about skipping";
}

} // namespace

TEST(EventCore, BitIdenticalOnContendedWorkload)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    expectSkippingIsExact(cfg, {});
}

TEST(EventCore, BitIdenticalWithBackgroundTraffic)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.seed = 9;
    BgTrafficConfig bg;
    bg.rate = 0.05;
    expectSkippingIsExact(cfg, bg);
}

TEST(EventCore, FuzzBitIdenticalAcrossConfigs)
{
    // Randomized sweep: the config space on which skipping must be
    // invisible everywhere, not just on hand-picked workloads. Fixed
    // RNG seed keeps the sweep reproducible; any failure names its
    // config. The ledger is on, so the COH cause split (charged per
    // cycle on one side, per skipped span on the other) is compared
    // too.
    std::mt19937_64 rng(0xC0FFEE);
    for (int i = 0; i < 8; ++i) {
        SystemConfig cfg;
        cfg.numThreads = (rng() % 2 == 0) ? 4 : 16;
        cfg.mesh = SystemConfig::meshFor(cfg.numThreads);
        cfg.maxCycles = 4'000'000;
        cfg.seed = 1 + rng() % 1000;
        cfg.ocor.enabled = rng() % 2 == 0;
        BgTrafficConfig bg;
        bg.rate = (rng() % 2 == 0) ? 0.0 : 0.02;
        unsigned iters = 2 + rng() % 2;
        SCOPED_TRACE("config " + std::to_string(i) + ": threads="
                     + std::to_string(cfg.numThreads) + " seed="
                     + std::to_string(cfg.seed) + " ocor="
                     + std::to_string(cfg.ocor.enabled) + " bg="
                     + std::to_string(bg.rate) + " iters="
                     + std::to_string(iters));
        expectSkippingIsExact(cfg, bg, iters, true);
    }
}

TEST(EventCore, TraceExportByteIdentical)
{
    // The Chrome-JSON export includes per-event timestamps from every
    // traced component; byte equality means not one flit moved on a
    // different cycle when quiet spans are skipped.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.trace.categories = parseTraceCats("all");
    BgTrafficConfig bg;
    bg.rate = 0.02;

    auto traceOf = [&](bool checked, std::uint64_t &skipped) {
        SystemConfig c = cfg;
        c.check.checks = checked ? allChecksMask() : 0;
        Simulator sim(c, contendedPrograms(4, 3), bg);
        sim.run();
        skipped = sim.wallProfile().cyclesSkipped;
        std::ostringstream os;
        sim.system().tracer()->exportChromeJson(os);
        return os.str();
    };
    std::uint64_t checked_skipped = 0, unchecked_skipped = 0;
    std::string checked = traceOf(true, checked_skipped);
    std::string unchecked = traceOf(false, unchecked_skipped);
    ASSERT_FALSE(checked.empty());
    EXPECT_EQ(checked, unchecked);
    EXPECT_EQ(checked_skipped, 0u);
    EXPECT_GT(unchecked_skipped, 0u);
}

TEST(EventCore, CheckersPassAndMetricsMatchWhenArmed)
{
    // The armed run processes every cycle, violates nothing
    // (checkers panic on violation) and agrees with the unarmed run.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    BgTrafficConfig bg;
    bg.rate = 0.02;
    expectSkippingIsExact(cfg, bg);
}

TEST(EventCore, ProcessedPlusSkippedCoversTheRun)
{
    // A run that stops because its threads finished processes the
    // finish cycle itself: processed + skipped == cycles + 1.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    for (bool checked : {true, false}) {
        SCOPED_TRACE(checked ? "checked" : "unchecked");
        const LoopRun r = runWith(cfg, {}, checked);
        ASSERT_LT(r.m.roiFinish, cfg.maxCycles);
        EXPECT_EQ(r.wall.cycles, r.m.roiFinish);
        EXPECT_EQ(r.wall.cyclesProcessed + r.wall.cyclesSkipped,
                  r.wall.cycles + 1);
    }

    // A run cut at the maxCycles horizon never processes the horizon
    // cycle: processed + skipped == cycles == maxCycles. Long compute
    // spans let the unchecked run jump straight to the horizon.
    cfg.maxCycles = 5000;
    const Program busy = ProgramBuilder().compute(100'000).build();
    const std::vector<Program> programs(4, busy);
    for (bool checked : {true, false}) {
        SCOPED_TRACE(checked ? "checked" : "unchecked");
        SystemConfig c = cfg;
        c.check.checks = checked ? allChecksMask() : 0;
        Simulator sim(c, programs, {});
        const RunMetrics m = sim.run();
        const WallProfile &w = sim.wallProfile();
        EXPECT_EQ(m.roiFinish, cfg.maxCycles);
        EXPECT_EQ(w.cycles, cfg.maxCycles);
        EXPECT_EQ(w.cyclesProcessed + w.cyclesSkipped, w.cycles);
        if (checked)
            EXPECT_EQ(w.cyclesSkipped, 0u);
        else
            EXPECT_GT(w.cyclesSkipped, 0u);
    }
}
