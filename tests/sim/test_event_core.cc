/**
 * @file
 * Event-driven core equivalence tests (DESIGN.md §13).
 *
 * The event core exists purely for wall-clock speed: it must be
 * *bit-identical* to the legacy unconditional per-cycle loop. These
 * tests enforce that promise field-by-field over randomized
 * configurations (mesh size, thread count, OCOR on/off, background
 * traffic, fault seeds), byte-for-byte on trace exports, and with
 * every protocol checker armed.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.hh"
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

RunMetrics
runWith(const SystemConfig &cfg, const BgTrafficConfig &bg,
        SimCoreMode core, unsigned iters = 3)
{
    SimOptions opts;
    opts.core = core;
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, iters), bg,
                  opts);
    return sim.run();
}

/**
 * Assert two RunMetrics are field-exact: every integer counter equal,
 * every derived double bit-equal (both sides compute them from
 * identical integer state, so == is the right comparison — any drift
 * means the simulations diverged).
 */
void
expectFieldExact(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.roiFinish, b.roiFinish);
    EXPECT_EQ(a.threads, b.threads);
    ASSERT_EQ(a.perThread.size(), b.perThread.size());
    for (std::size_t t = 0; t < a.perThread.size(); ++t) {
        const ThreadCounters &x = a.perThread[t];
        const ThreadCounters &y = b.perThread[t];
        EXPECT_EQ(x.computeCycles, y.computeCycles) << "thread " << t;
        EXPECT_EQ(x.csCycles, y.csCycles) << "thread " << t;
        EXPECT_EQ(x.blockedHeldCycles, y.blockedHeldCycles)
            << "thread " << t;
        EXPECT_EQ(x.blockedIdleCycles, y.blockedIdleCycles)
            << "thread " << t;
        EXPECT_EQ(x.acquisitions, y.acquisitions) << "thread " << t;
        EXPECT_EQ(x.spinWins, y.spinWins) << "thread " << t;
        EXPECT_EQ(x.sleepWins, y.sleepWins) << "thread " << t;
        EXPECT_EQ(x.retries, y.retries) << "thread " << t;
        EXPECT_EQ(x.sleeps, y.sleeps) << "thread " << t;
    }
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.lockPacketsInjected, b.lockPacketsInjected);
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
    EXPECT_EQ(a.avgLockPacketLatency, b.avgLockPacketLatency);
    EXPECT_EQ(a.avgDataPacketLatency, b.avgDataPacketLatency);
    EXPECT_EQ(a.p50PacketLatency, b.p50PacketLatency);
    EXPECT_EQ(a.p95PacketLatency, b.p95PacketLatency);
    EXPECT_EQ(a.p99PacketLatency, b.p99PacketLatency);
    EXPECT_EQ(a.p50LockHandover, b.p50LockHandover);
    EXPECT_EQ(a.p95LockHandover, b.p95LockHandover);
    EXPECT_EQ(a.p99LockHandover, b.p99LockHandover);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.flitsDropped, b.flitsDropped);
    EXPECT_EQ(a.flitsCorrupted, b.flitsCorrupted);
    EXPECT_EQ(a.crcRejects, b.crcRejects);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.duplicatesDropped, b.duplicatesDropped);
    EXPECT_EQ(a.watchdogRecoveries, b.watchdogRecoveries);
    EXPECT_EQ(a.unrecoverable, b.unrecoverable);
    EXPECT_EQ(a.hangDetected, b.hangDetected);
    EXPECT_EQ(a.cancelled, b.cancelled);
}

} // namespace

TEST(EventCore, BitIdenticalOnContendedWorkload)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    RunMetrics legacy = runWith(cfg, {}, SimCoreMode::Legacy);
    RunMetrics event = runWith(cfg, {}, SimCoreMode::Event);
    expectFieldExact(legacy, event);
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
    RunMetrics legacy = runWith(cfg, bg, SimCoreMode::Legacy);
    RunMetrics event = runWith(cfg, bg, SimCoreMode::Event);
    expectFieldExact(legacy, event);
}

TEST(EventCore, FuzzBitIdenticalAcrossConfigs)
{
    // Randomized sweep: the config space the two cores must agree on
    // everywhere, not just on hand-picked workloads. Fixed RNG seed
    // keeps the sweep reproducible; any failure names its config.
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
        if (rng() % 2 == 0) {
            cfg.fault.dropRate = 0.0005;
            cfg.fault.corruptRate = 0.0005;
            cfg.fault.seed = rng() % 100;
        }
        unsigned iters = 2 + rng() % 2;
        SCOPED_TRACE("config " + std::to_string(i) + ": threads="
                     + std::to_string(cfg.numThreads) + " seed="
                     + std::to_string(cfg.seed) + " ocor="
                     + std::to_string(cfg.ocor.enabled) + " bg="
                     + std::to_string(bg.rate) + " drop="
                     + std::to_string(cfg.fault.dropRate) + " iters="
                     + std::to_string(iters));
        RunMetrics legacy =
            runWith(cfg, bg, SimCoreMode::Legacy, iters);
        RunMetrics event =
            runWith(cfg, bg, SimCoreMode::Event, iters);
        expectFieldExact(legacy, event);
    }
}

TEST(EventCore, TraceExportByteIdentical)
{
    // The Chrome-JSON export includes per-event timestamps from every
    // traced component; byte equality means not one flit moved on a
    // different cycle in event mode.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.trace.categories = parseTraceCats("all");
    BgTrafficConfig bg;
    bg.rate = 0.02;

    auto traceOf = [&](SimCoreMode core) {
        SimOptions opts;
        opts.core = core;
        Simulator sim(cfg, contendedPrograms(4, 3), bg, opts);
        sim.run();
        std::ostringstream os;
        sim.system().tracer()->exportChromeJson(os);
        return os.str();
    };
    std::string legacy = traceOf(SimCoreMode::Legacy);
    std::string event = traceOf(SimCoreMode::Event);
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(legacy, event);
}

TEST(EventCore, CheckersPassAndMetricsMatchWhenArmed)
{
    // With every protocol checker armed the event loop may not skip
    // any cycle (checkers observe per-cycle state); the run must
    // still complete, violate nothing (checkers panic on violation)
    // and agree with an armed legacy run.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.check.checks = allChecksMask();
    BgTrafficConfig bg;
    bg.rate = 0.02;
    RunMetrics legacy = runWith(cfg, bg, SimCoreMode::Legacy);
    RunMetrics event = runWith(cfg, bg, SimCoreMode::Event);
    expectFieldExact(legacy, event);
}

TEST(EventCore, ResolvedModeDefaultsToEvent)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    Simulator sim(cfg, contendedPrograms(4, 1), {});
    // Auto resolves through the process default (Event unless the
    // environment overrides); the tests run without OCOR_SIM_CORE so
    // assert only that Auto resolved to *something* concrete.
    EXPECT_NE(sim.resolvedCoreMode(), SimCoreMode::Auto);
}
