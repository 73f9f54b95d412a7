/**
 * @file
 * Golden run record: a fixed set of short simulations whose every
 * RunMetrics field (per-thread counters included) and router work
 * counts must match a committed record exactly.
 *
 * Two groups of rows:
 *
 *  - The NoC matrix covers the NoC configurations perfbench's golden
 *    digest (default NocParams, seed 1) does not: 1 and 16 VCs, VC
 *    depths 1 and 3, two-cycle links, an OCOR rule ablation, armed
 *    checkers (every cycle processed) and non-square meshes. Any
 *    refactor of the router, link or NI layer that changes a single
 *    arbitration decision moves a row.
 *  - The profile rows run every benchmark profile, OCOR on and off,
 *    at 16 threads for one iteration with its own traffic, plus
 *    "can" at 64 threads, whose base run futex-sleeps. Each is its
 *    own ctest entry, so `ctest -j` spreads their cost.
 *
 * A process that runs every row writes them all, in record order, to
 * noc_golden.actual.tsv in its working directory. To regenerate the
 * record after an intended behaviour change:
 *
 *     (cd build/tests && ./test_sim --gtest_filter='*NocGolden*') ;
 *     cp build/tests/noc_golden.actual.tsv tests/sim/golden/noc_golden.tsv
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "golden_cases.hh"
#include "sim/simulator.hh"

using namespace ocor;

namespace
{

RunMetrics
runCase(const GoldenCase &gc, std::string &counts)
{
    GoldenInputs in = goldenInputs(gc);
    SimOptions opts;
    opts.cohLedger = true;
    Simulator sim(in.cfg, std::move(in.programs), in.traffic, opts);
    RunMetrics m = sim.run();

    std::uint64_t flits = 0, lockFlits = 0, va = 0, sa = 0, lost = 0;
    for (NodeId n = 0; n < in.cfg.mesh.numNodes(); ++n) {
        const RouterStats &rs = sim.system().network().router(n).stats();
        flits += rs.flitsRouted;
        lockFlits += rs.lockFlitsRouted;
        va += rs.vaGrants;
        sa += rs.saGrants;
        lost += rs.saConflictLosses;
    }
    // faults= and retx= print retired counters, always zero; the
    // record keeps their columns.
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

/** Every RunMetrics field in list order, doubles in exact hex form;
 * each perThread entry's counters end with ';'. */
std::string
canonical(const RunMetrics &m)
{
    std::string s;
    char buf[64];
    auto put = [&](auto v) {
        if constexpr (std::is_floating_point_v<decltype(v)>)
            std::snprintf(buf, sizeof buf, "%a,", v);
        else
            std::snprintf(buf, sizeof buf, "%llu,",
                          static_cast<unsigned long long>(v));
        s += buf;
    };
    RunMetrics::forEachField([&](const char *, auto f) {
        if constexpr (isPerThreadField<decltype(f)>) {
            for (const ThreadCounters &t : m.perThread) {
                ThreadCounters::forEachField(
                    [&](const char *, auto g) { put(t.*g); });
                s += ';';
            }
        } else {
            put(m.*f);
        }
    });
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

const std::map<std::string, std::string> &
goldenRows()
{
    static const std::map<std::string, std::string> rows = [] {
        std::map<std::string, std::string> golden;
        std::ifstream in(OCOR_GOLDEN_DIR "/noc_golden.tsv");
        std::string line;
        while (std::getline(in, line)) {
            const auto tab = line.find('\t');
            if (!line.empty() && line[0] != '#' && tab != std::string::npos)
                golden[line.substr(0, tab)] = line.substr(tab + 1);
        }
        return golden;
    }();
    return rows;
}

/** Keep @p row for the actual record; once this process has computed
 * every row, write them all out in record order. */
void
recordActual(const std::string &name, const std::string &row)
{
    static std::map<std::string, std::string> computed;
    computed[name] = row;
    std::vector<GoldenCase> all = nocMatrix();
    for (GoldenCase &gc : profileRows())
        all.push_back(std::move(gc));
    if (computed.size() != all.size())
        return;
    std::ofstream actual("noc_golden.actual.tsv", std::ios::trunc);
    actual << "# case\tdigest\troi\tcounts\n";
    for (const GoldenCase &gc : all)
        actual << gc.name << '\t' << computed[gc.name] << '\n';
}

void
checkCase(const GoldenCase &gc)
{
    ASSERT_FALSE(goldenRows().empty())
        << "missing or empty " OCOR_GOLDEN_DIR "/noc_golden.tsv";
    std::string counts;
    const RunMetrics m = runCase(gc, counts);
    EXPECT_FALSE(m.hangDetected) << gc.name;
    const std::string row = digestOf(m) + "\troi=" +
                            std::to_string(m.roiFinish) + "\t" + counts;
    recordActual(gc.name, row);
    const auto it = goldenRows().find(gc.name);
    if (it == goldenRows().end())
        ADD_FAILURE() << "no golden row for " << gc.name;
    else
        EXPECT_EQ(it->second, row) << gc.name;
}

class NocGoldenProfile : public ::testing::TestWithParam<GoldenCase>
{
};

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    std::string s = info.param.name;
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

} // namespace

TEST(NocGolden, MatrixMatchesRecord)
{
    for (const GoldenCase &gc : nocMatrix())
        checkCase(gc);
}

TEST_P(NocGoldenProfile, MatchesRecord)
{
    checkCase(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Profiles, NocGoldenProfile,
                         ::testing::ValuesIn(profileRows()), caseName);
