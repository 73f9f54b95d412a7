/**
 * @file
 * Figure 10: execution profile of bodytrack without and with OCOR.
 *
 * Records a per-cycle activity timeline of the first 16 threads over
 * the first 3000 cycles (as in the paper) plus a longer horizon for
 * stable fractions, and prints the parallel / blocked / CS split and
 * an ASCII rendering of the per-thread timeline.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "sim/simulator.hh"
#include "workload/benchmarks.hh"
#include "workload/synthetic.hh"

using namespace ocor;
using namespace ocor::bench;

namespace
{

/** Everything the printer needs from one timeline run. */
struct ProfileRun
{
    RunMetrics m;
    Timeline tl;
};

constexpr Cycle kHorizon = 60000;

/**
 * One timeline run. When @p observe is set the run carries the
 * observability flags: event tracing per --trace and a stats-registry
 * dump per --stats-json, both exported before the Simulator dies.
 * Artifacts are produced for the OCOR run only (the interesting one
 * for Figure 10).
 */
ProfileRun
computeRun(const BenchmarkProfile &profile, const Options &opt,
           bool ocor_on, bool observe)
{
    SystemConfig cfg;
    cfg.mesh = SystemConfig::meshFor(opt.threads);
    cfg.numThreads = opt.threads;
    cfg.seed = opt.seed;
    cfg.ocor.enabled = ocor_on;
    cfg.check.checks = opt.checkMask();
    if (observe && opt.tracing()) {
        cfg.trace.categories = parseTraceCats(opt.traceCats);
        cfg.trace.capacity = opt.traceCapacity;
    }

    SyntheticParams wl = profile.workload;
    wl.iterations = opt.iterations;
    std::vector<Program> programs;
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        programs.push_back(buildSyntheticProgram(wl, opt.seed, t));

    SimOptions sim_opts;
    sim_opts.timelineHorizon = kHorizon;
    sim_opts.timelineThreads = 16;
    if (observe) {
        // --coh-ledger surfaces the per-lock COH cause histograms
        // ("sim.coh.*") in this run's stats dump.
        sim_opts.cohLedger = opt.cohLedger;
        // The stats dump carries sim.wall.* (tick vs accounting vs
        // event scheduling); the phase split needs the profiler on.
        sim_opts.profileWall = !opt.statsJson.empty();
    }
    Simulator sim(cfg, std::move(programs), profile.traffic,
                  sim_opts);
    ProfileRun run;
    run.m = sim.run();
    run.tl = sim.timeline();

    if (observe) {
        if (Tracer *tr = sim.system().tracer())
            writeTrace(*tr, opt.traceOut);
        if (!opt.statsJson.empty()) {
            StatsRegistry reg;
            sim.registerStats(reg);
            // Process-global aggregates ride along (the sim.wall.*
            // keys above win).
            registerAggregateStats(reg);
            std::ofstream out = openArtifact(opt.statsJson);
            reg.dumpJson(out);
            std::printf("stats: %zu entries -> %s\n", reg.size(),
                        opt.statsJson.c_str());
        }
    }
    return run;
}

void
printRun(const ProfileRun &run, bool ocor_on)
{
    const RunMetrics &m = run.m;
    const Timeline &tl = run.tl;

    std::printf("\n--- %s ---\n", ocor_on ? "with OCOR"
                                          : "without OCOR (original)");
    std::printf("ROI finish: %llu cycles\n",
                static_cast<unsigned long long>(m.roiFinish));
    Cycle upto = std::min<Cycle>(kHorizon, m.roiFinish);
    std::printf("first %llu cycles, 16 threads: parallel %.1f%% | "
                "blocked %.1f%% | CS %.1f%%\n",
                static_cast<unsigned long long>(upto),
                100.0 * tl.fraction(SegClass::Parallel, upto),
                100.0 * tl.fraction(SegClass::Blocked, upto),
                100.0 * tl.fraction(SegClass::Cs, upto));
    std::printf("whole run: blocked %.1f%% (COH %.1f%%), "
                "CS %.1f%%\n", m.blockedPct(), m.cohPct(),
                m.csPct());

    // ASCII timeline: one row per thread, 100 columns covering the
    // first 3000-cycle window scaled like the paper's figure.
    const Cycle window = std::min<Cycle>(upto, 30000);
    const unsigned cols = 100;
    std::printf("timeline (first %llu cycles; '.' parallel, "
                "'x' blocked, 'C' critical section):\n",
                static_cast<unsigned long long>(window));
    for (unsigned t = 0; t < 16 && t < tl.threads(); ++t) {
        std::printf("t%02u ", t);
        for (unsigned col = 0; col < cols; ++col) {
            Cycle lo = window * col / cols;
            Cycle hi = window * (col + 1) / cols;
            unsigned blocked = 0, cs = 0, total = 0;
            for (Cycle c = lo; c < hi; ++c) {
                switch (tl.at(t, c)) {
                  case SegClass::Blocked: ++blocked; break;
                  case SegClass::Cs: ++cs; break;
                  default: break;
                }
                ++total;
            }
            char ch = '.';
            if (cs * 3 > total)
                ch = 'C';
            else if (blocked * 2 > total)
                ch = 'x';
            std::putchar(ch);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    banner("Figure 10: execution profile of bodytrack (body), "
           "original vs OCOR");
    BenchmarkProfile profile = profileByName("body");

    const bool observe = opt.tracing() || !opt.statsJson.empty();
    if (observe) {
        // Observability artifacts print as they are written; run
        // serially so the exports interleave deterministically with
        // the profile output.
        ProfileRun base = computeRun(profile, opt, false, false);
        ProfileRun ocor = computeRun(profile, opt, true, true);
        printRun(base, false);
        printRun(ocor, true);
    } else {
        // The two timeline runs are independent; compute them
        // concurrently and print serially in the original order.
        ThreadPool pool(opt.jobs == 0 ? 2 : std::min(opt.jobs, 2u));
        auto base = pool.run(
            [&] { return computeRun(profile, opt, false, false); });
        auto ocor = pool.run(
            [&] { return computeRun(profile, opt, true, false); });
        printRun(base.get(), false);
        printRun(ocor.get(), true);
    }
    std::printf("\nExpected shape: with OCOR the blocked ('x') "
                "share shrinks and the run compresses.\n");
    return 0;
}
