/**
 * @file
 * The partitioned cycle (DESIGN.md §13): a run ticked on 2 or 4 mesh
 * strips in parallel must equal the one-strip run in every RunMetrics
 * field, per-thread counters included, and in every system.* value of
 * the stats registry.
 *
 * Cases: every golden-record configuration (golden_cases.hh) with the
 * COH ledger off (a ledger forces one strip), and "botss" at 64
 * threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "golden_cases.hh"
#include "same_run.hh"
#include "sim/simulator.hh"

using namespace ocor;

namespace
{

/** A run's observable outcome: its RunMetrics and every line of the
 * System's stats-registry dump. */
struct Outcome
{
    unsigned strips = 0;
    RunMetrics m;
    std::vector<std::string> stats;
};

Outcome
runOn(const GoldenCase &gc, unsigned strips)
{
    GoldenInputs in = goldenInputs(gc);
    Simulator sim(in.cfg, std::move(in.programs), in.traffic);
    sim.system().testPinStrips(strips);
    Outcome o;
    o.strips = sim.system().numStrips();
    o.m = sim.run();
    StatsRegistry reg;
    sim.system().registerStats(reg);
    std::ostringstream dump;
    reg.dumpJson(dump);
    std::istringstream lines(dump.str());
    for (std::string line; std::getline(lines, line);)
        o.stats.push_back(line);
    return o;
}

/** Run @p gc on one strip, then on 2 and 4, and compare. */
void
expectStripInvariant(const GoldenCase &gc)
{
    const Outcome one = runOn(gc, 1);
    ASSERT_EQ(one.strips, 1u);
    for (unsigned k : {2u, 4u}) {
        const Outcome o = runOn(gc, k);
        SCOPED_TRACE(gc.name + " on " + std::to_string(o.strips) +
                     " strips");
        // Checkers are shared by every node and force one strip.
        const bool checked = goldenInputs(gc).cfg.check.enabled();
        EXPECT_EQ(o.strips, checked ? 1u : std::min(k, gc.mesh.height));
        ASSERT_TRUE(sameRun(o.m, one.m));
        ASSERT_EQ(o.stats.size(), one.stats.size());
        for (std::size_t i = 0; i < o.stats.size(); ++i)
            ASSERT_EQ(o.stats[i], one.stats[i]);
    }
}

/** The golden profile rows plus "botss" at 64 threads, OCOR off and
 * on. */
std::vector<GoldenCase>
profileCases()
{
    std::vector<GoldenCase> rows = profileRows();
    for (bool ocor : {false, true})
        rows.push_back({std::string("botss-t64-") +
                            (ocor ? "ocor" : "base"),
                        "botss", 1, 0, SystemConfig::meshFor(64), 64,
                        ocor, {}});
    return rows;
}

class PartitionedCycleProfile
    : public ::testing::TestWithParam<GoldenCase>
{
};

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    std::string s = info.param.name;
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

} // namespace

TEST(PartitionedCycle, NocMatrixEqualsOneStrip)
{
    // "link-latency-2" on four strips is the 4x4 mesh in one-row
    // strips with two-cycle links: every north-south link crosses a
    // strip boundary.
    for (const GoldenCase &gc : nocMatrix())
        expectStripInvariant(gc);
}

TEST_P(PartitionedCycleProfile, EqualsOneStrip)
{
    expectStripInvariant(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Profiles, PartitionedCycleProfile,
                         ::testing::ValuesIn(profileCases()), caseName);

TEST(PartitionedCycle, StripCountIsDerived)
{
    auto strips = [](MeshShape mesh, auto tweak) {
        SystemConfig cfg;
        cfg.mesh = mesh;
        cfg.numThreads = 1;
        cfg.check.checks = 0;
        tweak(cfg);
        std::vector<Program> progs;
        progs.push_back(ProgramBuilder().compute(5).build());
        return System(cfg, std::move(progs), BgTrafficConfig{})
            .numStrips();
    };
    auto plain = [](SystemConfig &) {};
    const unsigned cpus = ThreadPool::defaultConcurrency();
    // Rows, nodes / 16, and the CPUs per worker of the enclosing pool.
    EXPECT_EQ(strips(MeshShape{8, 8}, plain), std::clamp(cpus, 1u, 4u));
    EXPECT_EQ(strips(MeshShape{8, 4}, plain), std::clamp(cpus, 1u, 2u));
    EXPECT_EQ(strips(MeshShape{4, 4}, plain), 1u);
    ThreadPool pool(2);
    EXPECT_EQ(pool.run([&] { return strips(MeshShape{8, 8}, plain); })
                  .get(),
              std::clamp(cpus / 2, 1u, 4u));
    // Anything every node shares forces one strip.
    EXPECT_EQ(strips(MeshShape{8, 8},
                     [](SystemConfig &c) { c.trace.categories = 1; }),
              1u);
    EXPECT_EQ(strips(MeshShape{8, 8},
                     [](SystemConfig &c) {
                         c.check.checks = allChecksMask();
                     }),
              1u);
}

TEST(PartitionedCycle, LedgerForcesOneStrip)
{
    GoldenInputs in = goldenInputs(nocMatrix().front());
    SimOptions opts;
    opts.cohLedger = true;
    Simulator sim(in.cfg, std::move(in.programs), in.traffic, opts);
    sim.system().testPinStrips(4);
    EXPECT_EQ(sim.system().numStrips(), 1u);
    sim.system().setLedger(nullptr);
    EXPECT_EQ(sim.system().numStrips(), 4u);
}

namespace
{

/** Loop a lock response for a thread that does not exist back at
 * node 63: the last of four strips, which a worker ticks. */
void
panicOnAStripWorker()
{
    RunLabelScope label("strip-panic");
    SystemConfig cfg;
    cfg.mesh = MeshShape{8, 8};
    cfg.numThreads = 1;
    cfg.check.checks = 0;
    std::vector<Program> progs;
    progs.push_back(ProgramBuilder().compute(1000).build());
    System sys(cfg, std::move(progs), BgTrafficConfig{});
    sys.testPinStrips(4);
    auto pkt = makePacket(MsgType::LockGrant, 63, 63, 0);
    pkt->thread = 9999;
    sys.network().send(pkt, 0);
    for (Cycle c = 0; c < 4; ++c)
        sys.tick(c);
}

} // namespace

TEST(PartitionedCycleDeathTest, PanicOnAStripWorkerNamesTheRun)
{
    EXPECT_DEATH(panicOnAStripWorker(),
                 "lock response for unknown thread 9999.* in run "
                 "\\[strip-panic\\]");
}
