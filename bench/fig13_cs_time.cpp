/**
 * @file
 * Figure 13: relative critical-section execution time.
 *
 * OCOR attacks the competition for critical sections, not their
 * execution: per-acquisition CS time must be essentially unchanged
 * between the original design and OCOR.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workload/benchmarks.hh"

using namespace ocor;
using namespace ocor::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    banner("Figure 13: relative critical section execution time "
           "(OCOR / original)");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    std::vector<BenchmarkResult> results =
        completePairs(runner.runSuite(opt.profiles(), opt.experiment()));

    std::printf("\n%-8s %12s %12s %10s\n", "program",
                "orig cyc/CS", "OCOR cyc/CS", "relative");
    double rel_sum = 0;
    unsigned n = 0;
    for (const auto &r : results) {
        double base_cs = static_cast<double>(r.base.totalCs())
            / static_cast<double>(r.base.totalAcquisitions());
        double ocor_cs = static_cast<double>(r.ocor.totalCs())
            / static_cast<double>(r.ocor.totalAcquisitions());
        double rel = base_cs == 0 ? 1.0 : ocor_cs / base_cs;
        std::printf("%-8s %12.1f %12.1f %9.3f\n", r.name.c_str(),
                    base_cs, ocor_cs, rel);
        rel_sum += rel;
        ++n;
    }
    std::printf("average relative CS time: %.3f (paper: ~1.0, "
                "negligible effect)\n", meanOf(rel_sum, n));
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
