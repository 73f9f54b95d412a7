/**
 * @file
 * Table 3: full result summary for the 64-thread case — COH
 * improvement, ROI finish-time improvement and the CS-rate /
 * network-utilization characterization for every benchmark, ordered
 * by ROI improvement, with per-suite and overall averages.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "os/lock_ledger.hh"
#include "workload/benchmarks.hh"

using namespace ocor;
using namespace ocor::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    banner("Table 3: result summary (COH improvement, ROI "
           "improvement, characteristics)");

    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    std::vector<BenchmarkResult> results =
        completePairs(runner.runSuite(opt.profiles(), opt.experiment()));

    std::sort(results.begin(), results.end(),
              [](const BenchmarkResult &a, const BenchmarkResult &b) {
                  return a.roiImprovementPct()
                      < b.roiImprovementPct();
              });

    std::printf("\n%-8s %-8s %8s %10s %10s %10s\n", "program",
                "suite", "CS rate", "net util", "COH impro",
                "ROI impro");
    double coh_p = 0, roi_p = 0, coh_o = 0, roi_o = 0;
    unsigned np = 0, no = 0;
    for (const auto &r : results) {
        std::printf("%-8s %-8s %8s %10s %9.1f%% %9.1f%%\n",
                    r.name.c_str(), r.suite.c_str(),
                    r.highCsRate ? "high" : "low",
                    r.highNetUtil ? "high" : "low",
                    r.cohImprovementPct(), r.roiImprovementPct());
        if (r.suite == "PARSEC") {
            coh_p += r.cohImprovementPct();
            roi_p += r.roiImprovementPct();
            ++np;
        } else {
            coh_o += r.cohImprovementPct();
            roi_o += r.roiImprovementPct();
            ++no;
        }
    }
    std::printf("\n%-17s COH %5.1f%%  ROI %5.1f%%   "
                "(paper: 40.4%% / 13.7%%)\n", "PARSEC average",
                meanOf(coh_p, np), meanOf(roi_p, np));
    std::printf("%-17s COH %5.1f%%  ROI %5.1f%%   "
                "(paper: 39.3%% / 15.1%%)\n", "OMP2012 average",
                meanOf(coh_o, no), meanOf(roi_o, no));
    std::printf("%-17s COH %5.1f%%  ROI %5.1f%%   "
                "(paper: 39.9%% / 14.4%%)\n", "overall average",
                meanOf(coh_p + coh_o, np + no),
                meanOf(roi_p + roi_o, np + no));

    // Latency tails: packet latency and lock-handover gap, original
    // vs OCOR.
    std::printf("\nlatency percentiles (cycles), original -> OCOR:\n");
    std::printf("%-8s %26s %26s\n", "program",
                "packet p50/p95/p99", "handover p50/p95/p99");
    for (const auto &r : results)
        std::printf("%-8s %7.1f/%7.1f/%7.1f  %7.1f/%7.1f/%7.1f\n"
                    "%-8s %7.1f/%7.1f/%7.1f  %7.1f/%7.1f/%7.1f\n",
                    r.name.c_str(), r.base.p50PacketLatency,
                    r.base.p95PacketLatency, r.base.p99PacketLatency,
                    r.base.p50LockHandover, r.base.p95LockHandover,
                    r.base.p99LockHandover, "  +ocor",
                    r.ocor.p50PacketLatency, r.ocor.p95PacketLatency,
                    r.ocor.p99PacketLatency, r.ocor.p50LockHandover,
                    r.ocor.p95LockHandover, r.ocor.p99LockHandover);

    // COH cause breakdown (--coh-breakdown, DESIGN.md §14): how each
    // program's competition overhead splits into transfer /
    // arbitration / backoff / sleep / grant-gap cycles, original vs
    // OCOR.
    if (opt.cohBreakdown) {
        auto causes = [](const RunMetrics &m) {
            const ThreadCounters t = m.totals();
            return std::array<std::uint64_t, kNumCohCauses>{
                t.cohTransferCycles, t.cohArbitrationCycles,
                t.cohBackoffCycles, t.cohSleepCycles,
                t.cohGrantGapCycles};
        };
        std::printf("\nCOH cause breakdown (%% of each run's COH):\n");
        std::printf("%-8s %-6s %12s %9s %9s %9s %9s %9s\n",
                    "program", "run", "COH cycles", "transfer",
                    "arbitr.", "backoff", "sleep", "grantgap");
        for (const BenchmarkResult &r : results) {
            const RunMetrics *runs[2] = {&r.base, &r.ocor};
            const char *labels[2] = {"base", "ocor"};
            for (int k = 0; k < 2; ++k) {
                const RunMetrics &m = *runs[k];
                const auto c = causes(m);
                const double coh =
                    static_cast<double>(m.totalCoh());
                auto pct = [&](std::uint64_t v) {
                    return coh == 0.0 ? 0.0 : 100.0 * v / coh;
                };
                std::printf("%-8s %-6s %12llu %8.1f%% %8.1f%% "
                            "%8.1f%% %8.1f%% %8.1f%%\n",
                            k == 0 ? r.name.c_str() : "",
                            labels[k],
                            static_cast<unsigned long long>(
                                m.totalCoh()),
                            pct(c[0]), pct(c[1]), pct(c[2]),
                            pct(c[3]), pct(c[4]));
            }
        }
        std::printf("(causes sum to each run's COH by "
                    "construction)\n");
    }

    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
