/**
 * @file
 * Figure 11: (a) COH reduction across all 25 benchmarks, sorted from
 * most to least improvement; (b) percentage of critical sections won
 * in the low-overhead spinning phase, without and with OCOR.
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
    banner("Figure 11: COH reduction and spinning-phase win rate");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    // --profile narrows the sweep to one benchmark (the README's
    // wake-attribution walkthrough profiles a single slow profile).
    std::vector<BenchmarkResult> results =
        completePairs(runner.runSuite(opt.profiles(), opt.experiment()));

    std::sort(results.begin(), results.end(),
              [](const BenchmarkResult &a, const BenchmarkResult &b) {
                  return a.cohImprovementPct()
                      > b.cohImprovementPct();
              });

    std::printf("\n(a) COH reduction, sorted most -> least\n");
    std::printf("%-8s %-8s %9s  %s\n", "program", "suite",
                "COH red.", "bar (0..100%)");
    double sum = 0, parsec_sum = 0, omp_sum = 0;
    unsigned parsec_n = 0, omp_n = 0;
    for (const auto &r : results) {
        double v = r.cohImprovementPct();
        std::printf("%-8s %-8s %8.1f%%  |%s|\n", r.name.c_str(),
                    r.suite.c_str(), v, bar(v, 100.0).c_str());
        sum += v;
        if (r.suite == "PARSEC") {
            parsec_sum += v;
            ++parsec_n;
        } else {
            omp_sum += v;
            ++omp_n;
        }
    }
    std::printf("averages: PARSEC %.1f%% | OMP2012 %.1f%% | "
                "overall %.1f%%\n",
                meanOf(parsec_sum, parsec_n), meanOf(omp_sum, omp_n),
                meanOf(sum, results.size()));
    std::printf("(paper: PARSEC 40.4%%, OMP2012 39.3%%, overall "
                "39.9%%, max 61.8%% botss, min 12.5%% imag)\n");

    std::printf("\n(b) %% of CS entered in the spinning phase "
                "(same benchmark order)\n");
    std::printf("%-8s %10s %10s %8s\n", "program", "original",
                "OCOR", "gain");
    double gain_sum = 0;
    for (const auto &r : results) {
        std::printf("%-8s %9.1f%% %9.1f%% %+7.1f\n", r.name.c_str(),
                    r.base.spinWinPct(), r.ocor.spinWinPct(),
                    r.spinWinImprovementPts());
        gain_sum += r.spinWinImprovementPts();
    }
    std::printf("average gain: %+.1f points (paper: +33.1)\n",
                meanOf(gain_sum, results.size()));

    // Machine-readable COH summary: scripts/paper_gate.py reads it
    // for every committed seed and gates the headline means.
    {
        std::ofstream cj = openArtifact("coh_summary.json");
        cj << "{\n  \"programs\": {\n";
        for (std::size_t i = 0; i < results.size(); ++i)
            cj << "    \"" << results[i].name << "\": "
               << results[i].cohImprovementPct()
               << (i + 1 < results.size() ? ",\n" : "\n");
        cj << "  },\n";
        cj << "  \"parsec_mean\": " << meanOf(parsec_sum, parsec_n)
           << ",\n";
        cj << "  \"omp_mean\": " << meanOf(omp_sum, omp_n) << ",\n";
        cj << "  \"overall_mean\": " << meanOf(sum, results.size())
           << ",\n";
        cj << "  \"spin_win_gain_mean_pts\": "
           << meanOf(gain_sum, results.size()) << "\n}\n";
    }
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
