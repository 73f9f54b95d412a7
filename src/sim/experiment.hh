/**
 * @file
 * Experiment runner: paired Original-vs-OCOR runs of a benchmark
 * profile, producing the rows behind the paper's figures and tables.
 */

#ifndef OCOR_SIM_EXPERIMENT_HH
#define OCOR_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/benchmarks.hh"

namespace ocor
{

/** Paired result for one benchmark. */
struct BenchmarkResult
{
    std::string name;
    std::string suite;
    bool highCsRate = false;
    bool highNetUtil = false;

    RunMetrics base;  ///< original queue spinlock
    RunMetrics ocor;  ///< with OCOR

    /** COH reduction in % (Fig 11a / Table 3 "COH Impro."). */
    double cohImprovementPct() const;

    /** ROI finish-time reduction in % (Fig 14b / Table 3). */
    double roiImprovementPct() const;

    /** Spin-phase win percentage improvement (Fig 11b), in
     * percentage points. */
    double spinWinImprovementPts() const;
};

/** Knobs of one experiment sweep. */
struct ExperimentConfig
{
    unsigned threads = 64;
    std::uint64_t seed = 1;
    unsigned iterationsOverride = 0; ///< 0 = profile default
    /** OCOR knobs for both runs of a pair. Only numRtrLevels and the
     * rule bits may differ from the defaults: they are all the cache
     * key names, and makeCacheKey() panics on any other. */
    OcorConfig ocorOverride;
    bool ocorOverrideSet = false;

    /** Runtime invariant checking, applied to both runs of a pair. */
    CheckConfig check;

    /** COH attribution ledger on both runs of a pair (DESIGN.md
     * §14). Aggregate results are identical with it on, but the
     * cause counters only exist on ledger runs, so the result cache
     * keys ledger runs separately. */
    bool cohLedger = false;
};

/**
 * Build the SystemConfig for an experiment run. Profiles differ only
 * in workload/traffic parameters (applied in runOnce), never in
 * machine configuration, so the config depends on the experiment
 * knobs alone.
 */
SystemConfig makeSystemConfig(const ExperimentConfig &exp,
                              bool ocor_enabled);

/**
 * Whether @p m, a run of an experiment configuration, is complete:
 * no deadline cancelled it, the forward-progress watchdog did not
 * stop it, and every thread finished before the maxCycles horizon
 * (SystemConfig's default, which makeSystemConfig keeps). Only a
 * complete run is journaled or printed as a result.
 */
bool isComplete(const RunMetrics &m);

/** Run one configuration of one benchmark. */
RunMetrics runOnce(const BenchmarkProfile &profile,
                   const ExperimentConfig &exp, bool ocor_enabled,
                   Simulator::Options opts = {});

/** Run the Original/OCOR pair for one benchmark. */
BenchmarkResult runComparison(const BenchmarkProfile &profile,
                              const ExperimentConfig &exp);

/** Run the pair for every profile in @p profiles. */
std::vector<BenchmarkResult>
runSuite(const std::vector<BenchmarkProfile> &profiles,
         const ExperimentConfig &exp);

} // namespace ocor

#endif // OCOR_SIM_EXPERIMENT_HH
