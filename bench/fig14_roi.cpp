/**
 * @file
 * Figure 14: (a) percentage of COH in the ROI finish time per
 * benchmark (without OCOR), and (b) the resulting ROI finish-time
 * improvement with OCOR.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workload/benchmarks.hh"

using namespace ocor;
using namespace ocor::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    banner("Figure 14: COH share of ROI and ROI finish-time "
           "improvement");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    std::vector<BenchmarkResult> results =
        completePairs(runner.runSuite(opt.profiles(), opt.experiment()));

    std::printf("\n(a) %% of thread time spent in COH "
                "(original design)\n");
    std::printf("%-8s %8s  %s\n", "program", "COH%",
                "bar (0..60%)");
    for (const auto &r : results)
        std::printf("%-8s %7.1f%%  |%s|\n", r.name.c_str(),
                    r.base.cohPct(),
                    bar(r.base.cohPct(), 60).c_str());

    std::printf("\n(b) ROI finish time: original vs OCOR\n");
    std::printf("%-8s %12s %12s %9s\n", "program", "orig (cyc)",
                "OCOR (cyc)", "improv.");
    double sum = 0, parsec_sum = 0, omp_sum = 0;
    unsigned parsec_n = 0, omp_n = 0;
    for (const auto &r : results) {
        double v = r.roiImprovementPct();
        std::printf("%-8s %12llu %12llu %8.1f%%\n", r.name.c_str(),
                    static_cast<unsigned long long>(
                        r.base.roiFinish),
                    static_cast<unsigned long long>(
                        r.ocor.roiFinish),
                    v);
        sum += v;
        if (r.suite == "PARSEC") {
            parsec_sum += v;
            ++parsec_n;
        } else {
            omp_sum += v;
            ++omp_n;
        }
    }
    std::printf("ROI improvement averages: PARSEC %.1f%% | OMP2012 "
                "%.1f%% | overall %.1f%%\n",
                meanOf(parsec_sum, parsec_n), meanOf(omp_sum, omp_n),
                meanOf(sum, results.size()));
    std::printf("(paper: PARSEC 13.7%%, OMP2012 15.1%%, overall "
                "14.4%%, max 24.5%% ilbdc)\n");
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
