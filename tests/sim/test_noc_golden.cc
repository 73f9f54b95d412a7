/**
 * @file
 * Golden NoC-path fixture: a fixed matrix of short simulations whose
 * every RunMetrics field (per-thread counters included) and router
 * work counts must match a committed record exactly.
 *
 * The matrix covers the NoC configurations perfbench's golden digest
 * (default NocParams, no faults, seed 1) does not: link faults with
 * retransmission, 1 and 16 VCs, VC depths 1 and 3, two-cycle links, an
 * OCOR rule ablation, armed checkers, the legacy per-cycle core,
 * hybrid fidelity and a non-square mesh. Any refactor of the router,
 * link or NI layer that changes a single arbitration decision moves
 * a row.
 *
 * The test writes the rows it computed to noc_golden.actual.tsv in
 * its working directory (build/tests under ctest). To regenerate the
 * record after an intended behaviour change:
 *
 *     ctest --test-dir build -R NocGolden
 *     cp build/tests/noc_golden.actual.tsv tests/sim/golden/noc_golden.tsv
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workload/benchmarks.hh"
#include "workload/synthetic.hh"

using namespace ocor;

namespace
{

struct GoldenCase
{
    std::string name;
    MeshShape mesh;
    unsigned threads;
    bool ocor;
    std::function<void(SystemConfig &)> tweak;
    SimCoreMode core = SimCoreMode::Event;
};

/** Short, network-heavy runs: the saturated "can" profile with its
 * compute gap cut so lock traffic and background traffic overlap. */
RunMetrics
runCase(const GoldenCase &gc, std::string &counts)
{
    SystemConfig cfg;
    cfg.mesh = gc.mesh;
    cfg.numThreads = gc.threads;
    cfg.seed = 1;
    cfg.ocor.enabled = gc.ocor;
    cfg.check.checks = 0;
    cfg.maxCycles = 2'000'000;
    if (gc.tweak)
        gc.tweak(cfg);

    const BenchmarkProfile p = profileByName("can");
    SyntheticParams wl = p.workload;
    wl.iterations = 2;
    wl.meanGap = 1500;
    wl.lineBytes = cfg.mem.lineBytes;
    std::vector<Program> programs;
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        programs.push_back(buildSyntheticProgram(wl, cfg.seed, t));

    SimOptions opts;
    opts.core = gc.core;
    opts.cohLedger = true;
    Simulator sim(cfg, std::move(programs), p.traffic, opts);
    RunMetrics m = sim.run();

    std::uint64_t flits = 0, lockFlits = 0, va = 0, sa = 0, lost = 0;
    for (NodeId n = 0; n < cfg.mesh.numNodes(); ++n) {
        const RouterStats &rs = sim.system().network().router(n).stats();
        flits += rs.flitsRouted;
        lockFlits += rs.lockFlitsRouted;
        va += rs.vaGrants;
        sa += rs.saGrants;
        lost += rs.saConflictLosses;
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "flits=%llu lock_flits=%llu va=%llu sa=%llu lost=%llu "
                  "faults=%llu retx=%llu",
                  static_cast<unsigned long long>(flits),
                  static_cast<unsigned long long>(lockFlits),
                  static_cast<unsigned long long>(va),
                  static_cast<unsigned long long>(sa),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(m.faultsInjected),
                  static_cast<unsigned long long>(m.retransmissions));
    counts = buf;
    return m;
}

/** Every RunMetrics field, doubles in exact hex form. */
std::string
canonical(const RunMetrics &m)
{
    std::string s;
    char buf[64];
    auto u = [&](std::uint64_t v) {
        std::snprintf(buf, sizeof buf, "%llu,",
                      static_cast<unsigned long long>(v));
        s += buf;
    };
    auto d = [&](double v) {
        std::snprintf(buf, sizeof buf, "%a,", v);
        s += buf;
    };
    u(m.roiFinish);
    u(m.threads);
    for (const ThreadCounters &t : m.perThread) {
        for (std::uint64_t v :
             {t.computeCycles, t.csCycles, t.blockedHeldCycles,
              t.blockedIdleCycles, t.acquisitions, t.spinWins,
              t.sleepWins, t.retries, t.sleeps, t.cohTransferCycles,
              t.cohArbitrationCycles, t.cohBackoffCycles,
              t.cohSleepCycles, t.cohGrantGapCycles})
            u(v);
        s += ';';
    }
    for (std::uint64_t v :
         {m.packetsInjected, m.flitsInjected, m.lockPacketsInjected,
          m.fastpathPackets, m.windowsOpened, m.windowsClosed,
          m.windowCycles, m.faultsInjected, m.flitsDropped,
          m.flitsCorrupted, m.crcRejects, m.retransmissions,
          m.duplicatesDropped, m.watchdogRecoveries, m.unrecoverable})
        u(v);
    for (double v :
         {m.avgPacketLatency, m.avgLockPacketLatency,
          m.avgDataPacketLatency, m.p50PacketLatency, m.p95PacketLatency,
          m.p99PacketLatency, m.p50LockHandover, m.p95LockHandover,
          m.p99LockHandover})
        d(v);
    u(m.hangDetected);
    u(m.cancelled);
    return s;
}

/** FNV-1a over canonical(), as 16 hex digits. */
std::string
digestOf(const RunMetrics &m)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : canonical(m)) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<GoldenCase>
matrix()
{
    const MeshShape m4{4, 4};
    const MeshShape m2{2, 2};
    return {
        {"base-16", m4, 16, false, {}},
        {"ocor-16", m4, 16, true, {}},
        {"faults-drop-corrupt-jitter", m4, 16, true,
         [](SystemConfig &c) {
             c.fault.dropRate = 0.01;
             c.fault.corruptRate = 0.01;
             c.fault.jitterRate = 0.05;
             c.fault.jitterMax = 3;
             c.fault.retryTimeout = 800;
             c.fault.maxRetries = 10;
             c.fault.seed = 7;
             c.os.tryWatchdogCycles = 150'000;
             c.os.sleepWatchdogCycles = 150'000;
         }},
        {"vcs-1", m4, 16, true, [](SystemConfig &c) { c.noc.numVcs = 1; }},
        {"vcs-16", m4, 16, true,
         [](SystemConfig &c) { c.noc.numVcs = 16; }},
        {"depth-1", m4, 16, true,
         [](SystemConfig &c) { c.noc.vcDepth = 1; }},
        {"depth-3-base", m4, 16, false,
         [](SystemConfig &c) { c.noc.vcDepth = 3; }},
        {"link-latency-2", m4, 16, true,
         [](SystemConfig &c) { c.noc.linkLatency = 2; }},
        {"ablate-progress-rtr", m4, 16, true,
         [](SystemConfig &c) {
             c.ocor.ruleSlowProgressFirst = false;
             c.ocor.ruleLeastRtrFirst = false;
         }},
        {"checked", m4, 16, true,
         [](SystemConfig &c) { c.check.checks = allChecksMask(); }},
        {"legacy-core", m4, 16, true, {}, SimCoreMode::Legacy},
        {"hybrid", m4, 16, true,
         [](SystemConfig &c) { c.fidelity = Fidelity::Hybrid; }},
        {"mesh-4x2", MeshShape{4, 2}, 8, true, {}},
        {"mesh-3x2-base", MeshShape{3, 2}, 5, false, {}},
        {"small-2x2", m2, 4, true, {}},
    };
}

} // namespace

TEST(NocGolden, MatrixMatchesRecord)
{
    std::map<std::string, std::string> golden;
    {
        std::ifstream in(OCOR_GOLDEN_DIR "/noc_golden.tsv");
        ASSERT_TRUE(in.good()) << "missing " OCOR_GOLDEN_DIR
                                  "/noc_golden.tsv";
        std::string line;
        while (std::getline(in, line)) {
            const auto tab = line.find('\t');
            if (!line.empty() && line[0] != '#' && tab != std::string::npos)
                golden[line.substr(0, tab)] = line.substr(tab + 1);
        }
    }

    std::ofstream actual("noc_golden.actual.tsv", std::ios::trunc);
    actual << "# case\tdigest\troi\tcounts\n";
    for (const GoldenCase &gc : matrix()) {
        std::string counts;
        const RunMetrics m = runCase(gc, counts);
        EXPECT_FALSE(m.hangDetected) << gc.name;
        const std::string row = digestOf(m) + "\troi=" +
                                std::to_string(m.roiFinish) + "\t" +
                                counts;
        actual << gc.name << '\t' << row << '\n';
        const auto it = golden.find(gc.name);
        if (it == golden.end())
            ADD_FAILURE() << "no golden row for " << gc.name;
        else
            EXPECT_EQ(it->second, row) << gc.name;
    }
}
