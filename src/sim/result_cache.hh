/**
 * @file
 * Journaled on-disk cache of experiment results.
 *
 * Several benches (Fig. 11, 12, 13, 14, Table 3) are different views
 * of the same 25-benchmark Original-vs-OCOR sweep; a full 64-core
 * run takes minutes, so results are memoized in a TSV journal keyed
 * by every input that affects the outcome. Delete the file (default
 * `ocor_results.tsv` in the working directory) to force re-runs.
 *
 * The journal is crash-safe (DESIGN.md §12):
 *  - a versioned header line identifies the format,
 *  - every row carries a CRC32 stamp over its payload, so a flipped
 *    byte or a hand edit is detected instead of silently mis-parsed;
 *    such a row is skipped and counted in `parse_errors`,
 *  - every flush writes the whole journal, one row per key in key
 *    order, to `<path>.tmp`, fsyncs it, renames it over `<path>` and
 *    fsyncs the directory: a reader only ever sees a whole file, and
 *    a SIGKILL loses at most the stores since the last flush,
 *  - stores are flushed in batches of 16 and by the destructor,
 *  - a flush holds an advisory flock() on the journal's directory and
 *    first re-reads `<path>`, keeping the rows of keys that another
 *    process (two benches in one build directory) wrote since this
 *    one loaded.
 *
 * The cache is safe to hammer from many threads at once (the
 * parallel experiment engine does exactly that): lookups hit an
 * in-memory index loaded once from disk, and concurrent get() calls
 * for the same key are deduplicated so each configuration is
 * simulated exactly once.
 */

#ifndef OCOR_SIM_RESULT_CACHE_HH
#define OCOR_SIM_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/stats_registry.hh"
#include "sim/experiment.hh"

namespace ocor
{

/** Everything that identifies one cached run. */
struct CacheKey
{
    std::string benchmark;
    unsigned threads = 64;
    bool ocorEnabled = false;
    unsigned iterations = 0; ///< 0 = profile default
    std::uint64_t seed = 1;
    unsigned rtrLevels = 8;
    unsigned ruleMask = 0xf; ///< bit per Table-1 rule

    std::string toString() const;
};

/**
 * Build the key for an experiment configuration. Panics on an OCOR
 * override that changes a knob the key does not name (anything but
 * numRtrLevels and the four rule bits): such a run would be served
 * the default run's row.
 */
CacheKey makeCacheKey(const BenchmarkProfile &profile,
                      const ExperimentConfig &exp, bool ocor_enabled);

/** The key on one line, tabs as spaces: how the deadline warning and
 * panic and fatal messages name a run. */
std::string runLabel(const BenchmarkProfile &profile,
                     const ExperimentConfig &exp, bool ocor_enabled);

/**
 * Journaled, thread-safe memo of whole runs: a hit, from memory or
 * from the journal, is `==` the RunMetrics of the run it stands for,
 * per-thread counters and exact doubles included.
 *
 * Not copyable or movable (it owns a mutex and in-flight state);
 * benches hold one instance and share it across worker threads.
 */
class ResultCache
{
  public:
    /** The header line (without newline) of a current journal. A
     * file that does not start with it loads as empty and is
     * replaced by the next flush that writes. */
    static const char *headerLine();

    /**
     * @p path journal file. An empty path selects a purely in-memory
     * cache: no journal is read or written, which is what `--fresh`
     * and `--check` use.
     */
    explicit ResultCache(std::string path = "ocor_results.tsv");

    /** Flushes any unflushed stores to disk. */
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    std::optional<RunMetrics> lookup(const CacheKey &key) const;
    void store(const CacheKey &key, const RunMetrics &metrics);

    /**
     * Run-or-recall one configuration; stores on miss. This is the
     * entry point every bench binary uses. Safe to call from many
     * threads concurrently: losers of the in-flight race block until
     * the winner's simulation finishes, so a key is never simulated
     * twice. @p opts is forwarded to the simulation on a miss (the
     * runner passes its deadline through here); incomplete runs
     * (isComplete) are returned, to in-flight waiters too, but never
     * stored.
     */
    RunMetrics get(const BenchmarkProfile &profile,
                   const ExperimentConfig &exp, bool ocor_enabled,
                   Simulator::Options opts = {});

    /**
     * Durably write the journal now if any store is unflushed: under
     * the directory's flock, re-read `<path>`, add the rows of keys
     * this cache does not hold, and rename a fsync'd snapshot of
     * every key over `<path>`. With nothing unflushed the file is
     * not touched. On any failure, a read error other than a missing
     * file included, it warns and leaves `<path>` as it was.
     */
    void flush();

    /** Simulations actually executed by get() (cache misses). */
    std::uint64_t simulationsRun() const
    {
        return simulationsRun_.load(std::memory_order_relaxed);
    }

    /** Rows successfully loaded from the journal at open. */
    std::uint64_t rowsLoaded() const;

    /** Rows that failed CRC/parse validation and were skipped. */
    std::uint64_t parseErrors() const;

    /** Keys currently resident (disk + this process). */
    std::size_t size() const;

    /**
     * Register journal health counters under dotted names
     * ("<prefix>.parse_errors", "<prefix>.rows_loaded", ...). The
     * registry stores pointers into this cache, so it must not
     * outlive it.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "cache");

    const std::string &path() const { return path_; }

  private:
    /** Load the journal into the in-memory index (once; mu_ held). */
    void loadLocked() const;
    /** flush() body (mu_ held). */
    void flushLocked();
    /** Index @p metrics under @p ks; flush every kFlushBatch stores
     * (mu_ held). */
    void storeLocked(const std::string &ks, const RunMetrics &metrics);

    /** Stores made before a flush is forced. */
    static constexpr std::size_t kFlushBatch = 16;

    std::string path_;

    mutable std::mutex mu_;
    mutable bool loaded_ = false;
    /** Every key this cache holds, in the journal's row order. */
    mutable std::map<std::string, RunMetrics> mem_;
    std::size_t pending_ = 0; ///< stores since the last flush
    std::unordered_map<std::string, std::shared_future<RunMetrics>>
        inflight_;
    std::atomic<std::uint64_t> simulationsRun_{0};

    // Journal health at load (see registerStats).
    mutable std::uint64_t rowsLoaded_ = 0;
    mutable std::uint64_t parseErrors_ = 0;
};

} // namespace ocor

#endif // OCOR_SIM_RESULT_CACHE_HH
