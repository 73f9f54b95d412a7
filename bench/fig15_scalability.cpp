/**
 * @file
 * Figure 15: scalability — time spent in COH for 4, 16, 32, 64
 * threads, normalized to the no-OCOR configuration of each scale.
 *
 * The paper's trend: the more threads, the more competition, the
 * larger the COH reduction OCOR achieves.
 */

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
    banner("Figure 15: normalized COH at 4 / 16 / 32 / 64 threads");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    const unsigned scales[] = {4, 16, 32, 64};

    // A representative subset spanning the characteristic classes
    // (running all 25 at four scales is supported but slow; pass
    // --iters to scale run length).
    const char *names[] = {"imag", "body", "can", "ilbdc"};

    // All (program, scale) combos in one parallel batch; the small
    // 4-thread runs overlap the big 64-thread ones instead of
    // queueing behind them.
    std::vector<BenchmarkProfile> profiles;
    std::vector<ExperimentConfig> exps;
    for (const char *name : names) {
        for (unsigned threads : scales) {
            ExperimentConfig exp = opt.experiment();
            exp.threads = threads;
            profiles.push_back(profileByName(name));
            exps.push_back(exp);
        }
    }
    std::vector<BenchmarkResult> results =
        runner.runComparisons(profiles, exps);

    std::printf("\nCOH with OCOR, normalized to the original "
                "design at the same scale (100%%):\n");
    std::printf("%-8s %8s %8s %8s %8s\n", "program", "4t", "16t",
                "32t", "64t");
    std::size_t i = 0;
    for (const char *name : names) {
        std::printf("%-8s", name);
        for (unsigned threads [[maybe_unused]] : scales) {
            const BenchmarkResult &r = results[i++];
            if (!isComplete(r.base) || !isComplete(r.ocor)) {
                std::printf(" %8s", "--"); // partial metrics
                continue;
            }
            double norm = r.base.totalCoh() == 0
                ? 100.0
                : 100.0 * static_cast<double>(r.ocor.totalCoh())
                    / static_cast<double>(r.base.totalCoh());
            std::printf(" %7.1f%%", norm);
        }
        std::printf("\n");
    }
    std::printf("\nExpected shape: normalized COH decreases toward "
                "the right (more threads ->\nmore competition -> "
                "larger reduction), and high CS-rate/high net-util\n"
                "programs (botss, ilbdc) drop the furthest.\n");
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
