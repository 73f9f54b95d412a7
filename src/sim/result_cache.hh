/**
 * @file
 * Journaled on-disk cache of experiment results.
 *
 * Several benches (Fig. 11, 12, 13, 14, Table 3) are different views
 * of the same 25-benchmark Original-vs-OCOR sweep; a full 64-core
 * run takes minutes, so results are memoized in an append-only TSV
 * journal keyed by every input that affects the outcome. Delete the
 * file (default `ocor_results.tsv` in the working directory) to force
 * re-runs.
 *
 * The journal is crash-safe (DESIGN.md §12):
 *  - a versioned header line identifies the format,
 *  - every row carries a CRC32 stamp over its payload, so a torn or
 *    bit-rotted row is detected instead of silently mis-parsed,
 *  - appends are batched, written with POSIX I/O and fsync'd, so a
 *    SIGKILL loses at most the last unflushed batch,
 *  - a corrupt/torn *tail* is truncated on load (the journal heals
 *    itself; a crash never makes the file unreadable), while corrupt
 *    rows in the middle are skipped and counted in `parse_errors`,
 *  - duplicate keys resolve last-write-wins, deterministically, and
 *    compact() rewrites the journal via write-temp-then-atomic-rename
 *    so readers never observe a half-written file,
 *  - an advisory flock() serializes loads, appends and compactions
 *    across processes: two benches started in one build directory
 *    share `ocor_results.tsv`.
 *
 * The cache is safe to hammer from many threads at once (the
 * parallel experiment engine does exactly that): lookups hit an
 * in-memory index loaded once from disk, concurrent get() calls for
 * the same key are deduplicated so each configuration is simulated
 * exactly once, and disk writes are batched and serialized so the
 * journal never interleaves partial lines.
 */

#ifndef OCOR_SIM_RESULT_CACHE_HH
#define OCOR_SIM_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

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
 * Not copyable or movable (it owns a mutex, a file descriptor and
 * in-flight state); benches hold one instance and share it across
 * worker threads.
 */
class ResultCache
{
  public:
    /** The header line (without newline) of a current journal. A
     * file that does not start with it loads as empty and is
     * rewritten by the next flush. */
    static const char *headerLine();

    /**
     * @p path journal file. An empty path (or "/dev/null") selects a
     * purely in-memory cache: no journal is read or written, which
     * is what `--fresh` uses.
     */
    explicit ResultCache(std::string path = "ocor_results.tsv");

    /** Flushes any batched rows to disk. */
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

    /** Durably write any batched rows to the journal now (append +
     * fsync under the advisory file lock). */
    void flush();

    /**
     * Rewrite the journal as header + one row per live key (sorted,
     * deduplicated) via write-temp-then-atomic-rename. Also how a
     * foreign file or corrupt rows are scrubbed.
     */
    void compact();

    /** Simulations actually executed by get() (cache misses). */
    std::uint64_t simulationsRun() const
    {
        return simulationsRun_.load(std::memory_order_relaxed);
    }

    /** Rows successfully loaded from the journal at open. */
    std::uint64_t rowsLoaded() const;

    /** Rows that failed CRC/parse validation and were skipped. */
    std::uint64_t parseErrors() const;

    /** Times a torn/corrupt tail was truncated on load. */
    std::uint64_t tailTruncations() const;

    /** Bytes dropped by tail truncation. */
    std::uint64_t truncatedBytes() const;

    /** Compactions performed (including scrubs). */
    std::uint64_t compactions() const;

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
    /** Append pending rows to the journal (mu_ held). */
    void flushLocked();
    /** compact() body (mu_ held). */
    void compactLocked();
    /** Open (lazily) the append fd; returns -1 on failure. */
    int appendFdLocked();
    /** Index @p metrics under @p ks and queue its journal row
     * (mu_ held). */
    void storeLocked(const std::string &ks, const RunMetrics &metrics);

    /** Rows buffered before this many stores hit the disk. */
    static constexpr std::size_t kFlushBatch = 16;

    std::string path_;
    bool ephemeral_ = false; ///< no journal (empty path, /dev/null)

    mutable std::mutex mu_;
    mutable bool loaded_ = false;
    mutable bool rewrite_ = false; ///< compact on the next flush
    mutable int fd_ = -1;          ///< append descriptor (lazy)
    mutable std::unordered_map<std::string, RunMetrics> mem_;
    std::vector<std::string> pending_;
    std::unordered_map<std::string, std::shared_future<RunMetrics>>
        inflight_;
    std::atomic<std::uint64_t> simulationsRun_{0};

    // Journal health (see registerStats).
    mutable std::uint64_t rowsLoaded_ = 0;
    mutable std::uint64_t parseErrors_ = 0;
    mutable std::uint64_t tailTruncations_ = 0;
    mutable std::uint64_t truncatedBytes_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace ocor

#endif // OCOR_SIM_RESULT_CACHE_HH
