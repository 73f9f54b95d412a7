/**
 * @file
 * Figure 12: benchmark characteristics measured from the baseline
 * runs — (a) normalized critical-section access rate, (b) normalized
 * network utilization — in the same (sorted) order as Figure 11a.
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
    banner("Figure 12: measured CS access rate and network "
           "utilization (baseline runs)");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    std::vector<BenchmarkResult> results =
        completePairs(runner.runSuite(opt.profiles(), opt.experiment()));

    struct Row
    {
        BenchmarkResult cmp;
        double csRate;   ///< lock acquisitions per kcycle per thread
        double netUtil;  ///< packets per cycle per node
    };
    std::vector<Row> rows;
    for (auto &cmp : results) {
        Row row;
        row.cmp = std::move(cmp);
        const RunMetrics &m = row.cmp.base;
        row.csRate = 1000.0
            * static_cast<double>(m.totalAcquisitions())
            / (static_cast<double>(m.roiFinish) * m.threads);
        row.netUtil = m.netUtilization(
            SystemConfig::meshFor(opt.threads).numNodes());
        rows.push_back(row);
    }

    // Same order as Figure 11a: sorted by COH improvement.
    std::sort(rows.begin(), rows.end(), [](const Row &a,
                                           const Row &b) {
        return a.cmp.cohImprovementPct() > b.cmp.cohImprovementPct();
    });

    double cs_max = 0, net_max = 0;
    for (const auto &r : rows) {
        cs_max = std::max(cs_max, r.csRate);
        net_max = std::max(net_max, r.netUtil);
    }

    std::printf("\n%-8s %-5s %10s %8s   %10s %8s   %s\n", "program",
                "class", "CS rate", "norm.", "net util", "norm.",
                "(norm. bars: CS rate, net util)");
    for (const auto &r : rows) {
        double cs_n = 100.0 * r.csRate / cs_max;
        double net_n = 100.0 * r.netUtil / net_max;
        std::printf("%-8s %c/%c   %10.4f %7.1f%%   %10.4f %7.1f%%"
                    "   |%s| |%s|\n",
                    r.cmp.name.c_str(),
                    r.cmp.highCsRate ? 'H' : 'L',
                    r.cmp.highNetUtil ? 'H' : 'L', r.csRate, cs_n,
                    r.netUtil, net_n,
                    bar(cs_n, 100, 20).c_str(),
                    bar(net_n, 100, 20).c_str());
    }
    std::printf("\nExpected shape: programs near the top (largest "
                "COH reduction) show high CS access\nrates and high "
                "network utilization; the bottom entries are low on "
                "both axes.\n");
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
