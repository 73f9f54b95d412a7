/**
 * @file
 * Figure 2: criticality of competition overhead.
 *
 * For every benchmark under the *original* queue spinlock, print the
 * percentage of ROI time threads spend executing critical sections
 * (CS) versus competing for them (COH). The paper's point: COH
 * dwarfs CS itself.
 */

#include "bench_util.hh"
#include "workload/benchmarks.hh"

using namespace ocor;
using namespace ocor::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    banner("Figure 2: % of ROI finish time spent in CS vs COH "
           "(original queue spinlock)");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    ExperimentConfig exp = opt.experiment();

    // Baseline-only sweep: one request per profile, fanned across
    // the pool; results come back in profile order.
    const std::vector<BenchmarkProfile> profiles = opt.profiles();
    std::vector<RunRequest> reqs;
    reqs.reserve(profiles.size());
    for (const auto &p : profiles)
        reqs.push_back({p, exp, false});
    std::vector<RunMetrics> metrics = runner.run(reqs);

    std::printf("%-8s %-8s  %6s  %6s  %s\n", "program", "suite",
                "CS%", "COH%", "COH bar (0..60%)");
    double cs_sum = 0, coh_sum = 0;
    std::size_t rows = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &p = profiles[i];
        const RunMetrics &m = metrics[i];
        if (!isComplete(m))
            continue; // partial metrics; the runner named the run
        std::printf("%-8s %-8s  %5.1f%%  %5.1f%%  |%s|\n",
                    p.name.c_str(), p.suite.c_str(), m.csPct(),
                    m.cohPct(), bar(m.cohPct(), 60.0).c_str());
        cs_sum += m.csPct();
        coh_sum += m.cohPct();
        ++rows;
    }
    std::printf("%-8s %-8s  %5.1f%%  %5.1f%%\n", "average", "",
                meanOf(cs_sum, rows), meanOf(coh_sum, rows));
    std::printf("\nPaper's observation: COH is several times the CS "
                "execution time itself.\n");
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
