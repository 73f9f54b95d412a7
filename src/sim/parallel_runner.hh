/**
 * @file
 * Parallel experiment engine: fans a suite of (profile, OCOR on/off)
 * simulations across a worker pool, optionally under a wall-clock
 * deadline per request.
 *
 * Every Simulator::run owns its own System, and every stochastic
 * component draws from RNGs seeded purely from (config, seed), so
 * concurrent runs are bit-identical to serial ones — parallelism is
 * free determinism-wise. Results are reassembled in request order,
 * so output ordering never depends on scheduling either.
 *
 * When constructed over a ResultCache the runner inherits its
 * thread-safety and in-flight dedup: two requests for the same key
 * (e.g. the shared baseline of a level sweep) cost one simulation.
 *
 * The deadline (DESIGN.md §12) is off by default. When set, every
 * request gets a wall-clock budget scaled by its size; a run that
 * passes it stops at the simulator's next poll cycle and its slot
 * keeps the partial metrics, flagged RunMetrics::cancelled. There is
 * no retry: a simulation is deterministic, so rerunning the sweep is
 * the retry.
 */

#ifndef OCOR_SIM_PARALLEL_RUNNER_HH
#define OCOR_SIM_PARALLEL_RUNNER_HH

#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/stats_registry.hh"
#include "common/thread_pool.hh"
#include "sim/result_cache.hh"

namespace ocor
{

/** One simulation request: a profile under a full experiment knob
 * set (thread count, seed, OCOR override) and one OCOR setting. */
struct RunRequest
{
    BenchmarkProfile profile;
    ExperimentConfig exp;
    bool ocorEnabled = false;
};

/** Pool-backed experiment runner; optionally cache-write-through. */
class ParallelRunner
{
  public:
    /**
     * @p jobs worker count (0 = ThreadPool::defaultConcurrency());
     * @p cache when non-null, every run goes through
     * ResultCache::get (memoized + deduplicated), otherwise each
     * request is simulated directly; @p deadlineSeconds the
     * wall-clock budget of a 16-thread, 4-iteration request
     * (deadlineFor() scales it; 0 = no deadline).
     */
    explicit ParallelRunner(unsigned jobs = 0,
                            ResultCache *cache = nullptr,
                            double deadlineSeconds = 0.0);

    /** Deadline in seconds for @p req: deadlineSeconds x
     * (threads/16) x (iterations/4), floored at deadlineSeconds.
     * 0 when there is no deadline. */
    double deadlineFor(const RunRequest &req) const;

    /** Run every request concurrently; results in request order. A
     * request that passed its deadline keeps its partial metrics,
     * flagged cancelled. */
    std::vector<RunMetrics> run(const std::vector<RunRequest> &reqs);

    /** Original/OCOR pairs for heterogeneous (profile, exp) combos,
     * e.g. scalability or sensitivity sweeps. */
    std::vector<BenchmarkResult>
    runComparisons(const std::vector<BenchmarkProfile> &profiles,
                   const std::vector<ExperimentConfig> &exps);

    /** Original/OCOR pair for every profile under one knob set: the
     * parallel equivalent of runSuite(). */
    std::vector<BenchmarkResult>
    runSuite(const std::vector<BenchmarkProfile> &profiles,
             const ExperimentConfig &exp);

    unsigned jobs() const { return pool_.size(); }

    /** Requests (lifetime total) whose metrics came back cancelled
     * by a deadline; an in-flight duplicate of such a request shares
     * its partial metrics and counts too. */
    std::uint64_t timeouts() const;

    /** Requests (lifetime total) whose metrics came back incomplete
     * (isComplete): deadline stops, hangs and maxCycles stops. */
    std::uint64_t incompleteRuns() const;

    /** Wall-clock seconds per simulated run (thread-safe). */
    SampleStat runSeconds() const;

    /** Runs executed by this runner (cache hits included). */
    std::uint64_t runsExecuted() const;

    /** Pool busy time / (workers x elapsed) over the pool lifetime;
     * needs @p elapsed_seconds measured by the caller. */
    double utilization(double elapsed_seconds) const;

    const ThreadPool &pool() const { return pool_; }

    /**
     * Register the runner's and its pool's counters under dotted
     * names ("<prefix>.pool.worker0.busy_ns", "<prefix>.runs", ...).
     * The registry stores pointers into this runner, so it must not
     * outlive it.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "runner");

  private:
    RunMetrics runOne(const RunRequest &req);

    ThreadPool pool_;
    ResultCache *cache_;
    double deadlineSeconds_;

    mutable std::mutex statsMu_;
    SampleStat runSeconds_;
    std::uint64_t runsExecuted_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t incomplete_ = 0;
};

} // namespace ocor

#endif // OCOR_SIM_PARALLEL_RUNNER_HH
