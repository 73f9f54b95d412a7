/**
 * @file
 * The golden run record's cases (test_noc_golden.cc), shared with the
 * tests that run the same configurations another way.
 */

#ifndef OCOR_TESTS_SIM_GOLDEN_CASES_HH
#define OCOR_TESTS_SIM_GOLDEN_CASES_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "workload/benchmarks.hh"
#include "workload/synthetic.hh"

namespace ocor
{

/** One golden run: a profile on a mesh, OCOR on or off, with optional
 * configuration tweaks. */
struct GoldenCase
{
    std::string name;
    std::string profile;
    unsigned iterations;
    /** Compute gap between critical sections; 0 keeps the profile's. */
    std::uint64_t meanGap;
    MeshShape mesh;
    unsigned threads;
    bool ocor;
    std::function<void(SystemConfig &)> tweak;
};

/** gtest prints a case parameter by its name. */
inline void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.name;
}

/** What a Simulator of one case is built from. */
struct GoldenInputs
{
    SystemConfig cfg;
    std::vector<Program> programs;
    BgTrafficConfig traffic;
};

/** The configuration, programs and traffic of @p gc at seed 1, with
 * checkers off unless the case arms them. */
inline GoldenInputs
goldenInputs(const GoldenCase &gc)
{
    GoldenInputs in;
    SystemConfig &cfg = in.cfg;
    cfg.mesh = gc.mesh;
    cfg.numThreads = gc.threads;
    cfg.seed = 1;
    cfg.ocor.enabled = gc.ocor;
    cfg.check.checks = 0;
    cfg.maxCycles = 2'000'000;
    if (gc.tweak)
        gc.tweak(cfg);

    const BenchmarkProfile p = profileByName(gc.profile);
    SyntheticParams wl = p.workload;
    wl.iterations = gc.iterations;
    if (gc.meanGap > 0)
        wl.meanGap = gc.meanGap;
    wl.lineBytes = cfg.mem.lineBytes;
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        in.programs.push_back(buildSyntheticProgram(wl, cfg.seed, t));
    in.traffic = p.traffic;
    return in;
}

/** Short, network-heavy runs: the saturated "can" profile with its
 * compute gap cut so lock traffic and background traffic overlap. */
inline std::vector<GoldenCase>
nocMatrix()
{
    const MeshShape m4{4, 4};
    const MeshShape m2{2, 2};
    auto noc = [](std::string name, MeshShape mesh, unsigned threads,
                  bool ocor, std::function<void(SystemConfig &)> tweak) {
        return GoldenCase{std::move(name), "can", 2, 1500, mesh,
                          threads, ocor, std::move(tweak)};
    };
    return {
        noc("base-16", m4, 16, false, {}),
        noc("ocor-16", m4, 16, true, {}),
        noc("vcs-1", m4, 16, true,
            [](SystemConfig &c) { c.noc.numVcs = 1; }),
        noc("vcs-16", m4, 16, true,
            [](SystemConfig &c) { c.noc.numVcs = 16; }),
        noc("depth-1", m4, 16, true,
            [](SystemConfig &c) { c.noc.vcDepth = 1; }),
        noc("depth-3-base", m4, 16, false,
            [](SystemConfig &c) { c.noc.vcDepth = 3; }),
        noc("link-latency-2", m4, 16, true,
            [](SystemConfig &c) { c.noc.linkLatency = 2; }),
        noc("ablate-progress-rtr", m4, 16, true,
            [](SystemConfig &c) {
                c.ocor.ruleSlowProgressFirst = false;
                c.ocor.ruleLeastRtrFirst = false;
            }),
        noc("checked", m4, 16, true,
            [](SystemConfig &c) { c.check.checks = allChecksMask(); }),
        noc("mesh-4x2", MeshShape{4, 2}, 8, true, {}),
        noc("mesh-3x2-base", MeshShape{3, 2}, 5, false, {}),
        noc("small-2x2", m2, 4, true, {}),
    };
}

/** Every profile with its own workload and traffic for one
 * iteration, OCOR off and on, at 16 threads; then "can" at 64. */
inline std::vector<GoldenCase>
profileRows()
{
    std::vector<GoldenCase> rows;
    auto add = [&](const std::string &profile, unsigned threads) {
        for (bool ocor : {false, true})
            rows.push_back({profile + "-t" + std::to_string(threads) +
                                (ocor ? "-ocor" : "-base"),
                            profile, 1, 0,
                            SystemConfig::meshFor(threads), threads,
                            ocor, {}});
    };
    for (const BenchmarkProfile &p : allProfiles())
        add(p.name, 16);
    add("can", 64);
    return rows;
}

} // namespace ocor

#endif // OCOR_TESTS_SIM_GOLDEN_CASES_HH
