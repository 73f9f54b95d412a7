/**
 * @file
 * End-to-end tests for the observability stack: event tracing from a
 * real simulated run, trace determinism (including traced runs racing
 * on a worker pool), tracing-off invariance of the metrics, the trace
 * agreeing with the stats registry, wall-clock profiling and the
 * System stats registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
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
    cfg.seed = 11;
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

unsigned
countEv(const std::vector<TraceRecord> &recs, TraceEv ev)
{
    unsigned n = 0;
    for (const TraceRecord &r : recs)
        n += r.ev == ev;
    return n;
}

/** One traced run; returns its Chrome JSON export. */
std::string
tracedRunJson()
{
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("all");
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    sim.run();
    std::ostringstream os;
    sim.system().tracer()->exportChromeJson(os);
    return os.str();
}

} // namespace

TEST(Observability, TracedRunRecordsTheLockProtocol)
{
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("lock");
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    RunMetrics m = sim.run();

    Tracer *tr = sim.system().tracer();
    ASSERT_NE(tr, nullptr);
    std::vector<TraceRecord> recs = tr->snapshot();
    ASSERT_FALSE(recs.empty());

    // Lock-only tracing: every record is a lock-protocol event.
    for (const TraceRecord &r : recs)
        EXPECT_EQ(traceEvCat(r.ev), TraceCat::Lock);

    // Every critical section leaves a matched enter/exit pair.
    EXPECT_EQ(countEv(recs, TraceEv::CsEnter), m.totalAcquisitions());
    EXPECT_EQ(countEv(recs, TraceEv::CsExit), m.totalAcquisitions());
    EXPECT_EQ(countEv(recs, TraceEv::LockAcquireStart),
              m.totalAcquisitions());

    // Tries carry the RTR budget annotation (Section III's counter).
    bool saw_rtr = false;
    for (const TraceRecord &r : recs)
        if (r.ev == TraceEv::LockTrySent && r.a0 > 0)
            saw_rtr = true;
    EXPECT_TRUE(saw_rtr);

    // Contention on one word means ownership changed hands at least
    // once, with a measurable release-to-grant gap.
    unsigned handovers = 0;
    std::uint32_t max_gap = 0;
    for (const TraceRecord &r : recs)
        if (r.ev == TraceEv::LockHandover) {
            ++handovers;
            max_gap = std::max(max_gap, r.a1);
        }
    EXPECT_GT(handovers, 0u);
    EXPECT_GT(max_gap, 0u);

    // Cycle stamps never decrease (records are appended in order).
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].cycle, recs[i - 1].cycle);
}

TEST(Observability, TraceBytesIdenticalAcrossRunsAndWorkerPools)
{
    // Serial reference...
    const std::string serial = tracedRunJson();
    EXPECT_FALSE(serial.empty());

    // ...and the same traced configuration racing 4-wide on a pool
    // (the bench binaries' --jobs path). Per-System tracers mean host
    // scheduling can never leak into a trace.
    ThreadPool pool(4);
    std::vector<std::future<std::string>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(pool.run([] { return tracedRunJson(); }));
    for (auto &f : futs)
        EXPECT_EQ(f.get(), serial);
}

TEST(Observability, MetricsUnaffectedByTracingAndTelemetry)
{
    SystemConfig plain_cfg = smallConfig();
    Simulator plain(plain_cfg, contendedPrograms(4),
                    BgTrafficConfig{});
    RunMetrics a = plain.run();

    SystemConfig traced_cfg = smallConfig();
    traced_cfg.trace.categories = parseTraceCats("all");
    SimOptions opts;
    opts.profileWall = true;
    Simulator traced(traced_cfg, contendedPrograms(4),
                     BgTrafficConfig{}, opts);
    RunMetrics b = traced.run();

    EXPECT_TRUE(sameRun(a, b));
}

TEST(Observability, PercentilesPopulatedAndOrdered)
{
    SystemConfig cfg = smallConfig();
    Simulator sim(cfg, contendedPrograms(4, 5), BgTrafficConfig{});
    RunMetrics m = sim.run();

    EXPECT_GT(m.p50PacketLatency, 0.0);
    EXPECT_LE(m.p50PacketLatency, m.p95PacketLatency);
    EXPECT_LE(m.p95PacketLatency, m.p99PacketLatency);

    EXPECT_GT(m.p50LockHandover, 0.0);
    EXPECT_LE(m.p50LockHandover, m.p95LockHandover);
    EXPECT_LE(m.p95LockHandover, m.p99LockHandover);
}

TEST(Observability, TelemetrySamplesOnTheInterval)
{
    // The per-node NoC trace agrees with the stats the same run
    // registers: each node's PktEject records are its NI's ejected
    // packets, so long as the ring dropped nothing.
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("noc");
    cfg.trace.capacity = std::size_t{1} << 20;
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    sim.run();

    const Tracer *tr = sim.system().tracer();
    ASSERT_NE(tr, nullptr);
    ASSERT_EQ(tr->dropped(), 0u);
    StatsRegistry reg;
    sim.system().registerStats(reg);

    const unsigned nodes = sim.system().network().mesh().numNodes();
    std::vector<double> ejected(nodes, 0.0);
    for (const TraceRecord &r : tr->snapshot())
        if (r.ev == TraceEv::PktEject) {
            ASSERT_LT(r.node, nodes);
            ++ejected[r.node];
        }
    double total = 0.0;
    for (unsigned n = 0; n < nodes; ++n) {
        const std::string name =
            "system.ni" + std::to_string(n) + ".packets_ejected";
        EXPECT_EQ(ejected[n], reg.scalar(name)) << name;
        total += ejected[n];
    }
    EXPECT_GT(total, 0.0);
}

TEST(Observability, WallProfileMeasuresTheRun)
{
    SystemConfig cfg = smallConfig();
    SimOptions opts;
    opts.profileWall = true;
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{}, opts);
    RunMetrics m = sim.run();

    const WallProfile &w = sim.wallProfile();
    EXPECT_EQ(w.cycles, m.roiFinish);
    EXPECT_GT(w.totalSeconds, 0.0);
    EXPECT_GT(w.tickSeconds, 0.0);
    EXPECT_GT(w.accountSeconds, 0.0);
    // Phase times are subsets of the whole-run time.
    EXPECT_LE(w.tickSeconds + w.accountSeconds,
              w.totalSeconds * 1.001);
}

TEST(Observability, SystemRegistersHierarchicalStats)
{
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("lock");
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    RunMetrics m = sim.run();

    StatsRegistry reg;
    sim.system().registerStats(reg);

    for (const char *name :
         {"system.net.packets_delivered", "system.net.packet_latency",
          "system.net.packet_latency_hist", "system.router0.sa_grants",
          "system.router3.flits_routed", "system.ni0.packets_injected",
          "system.lockmgr0.grants",
          "system.lockmgr0.handover_latency_hist",
          "system.thread0.acquisitions", "system.thread3.cs_cycles",
          "system.trace.emitted"})
        EXPECT_TRUE(reg.has(name)) << name;

    // Registered pointers reflect the run's live counters.
    EXPECT_EQ(reg.scalar("system.thread0.acquisitions"),
              static_cast<double>(m.perThread[0].acquisitions));
    EXPECT_GT(reg.scalar("system.trace.emitted"), 0.0);

    // The dump is one machine-readable JSON object and two dumps of
    // the same system are byte-identical.
    std::ostringstream x, y;
    reg.dumpJson(x);
    reg.dumpJson(y);
    EXPECT_EQ(x.str(), y.str());
    EXPECT_EQ(x.str().front(), '{');
}
