/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: command
 * line handling, the shared result cache, and simple table/bar
 * rendering.
 *
 * Common flags across all benches:
 *   --threads N   core/thread count, a positive integer (default
 *                 64, the paper's setup)
 *   --iters N     critical sections per thread, a positive integer
 *                 (default 4)
 *   --seed N      experiment seed (default 1)
 *   --quick       shorthand for --threads 16 (fast smoke runs)
 *   --fresh       ignore the result cache for this invocation
 *   --jobs N      simulations run concurrently, a positive integer
 *                 (default: OCOR_JOBS env var, else hardware
 *                 concurrency)
 *   --profile P   restrict a suite bench to one benchmark profile by
 *                 name (benches that run fixed profiles ignore it)
 *
 * Observability flags (all off by default; see DESIGN.md §10, §14):
 *   --coh-ledger            attribute every COH cycle to a named
 *                           cause (transfer / arbitration / backoff /
 *                           sleep / grant gap), per lock and thread;
 *                           ledger runs are cached separately
 *   --coh-breakdown         (table3_summary) print the per-program
 *                           COH cause split; implies --coh-ledger
 *   --trace[=CATS]          enable event tracing for the categories
 *                           "lock", "noc", "sim" (comma-separated;
 *                           bare --trace means all)
 *   --trace-out FILE        Chrome JSON trace destination (default
 *                           trace.json)
 *   --trace-capacity N      trace ring size in records (default
 *                           2^19; size it above the run's emitted
 *                           count or the export is incomplete)
 *   --stats-json FILE       dump the hierarchical stats registry
 *
 * fig10_profile is the one bench that exports a trace and dumps a
 * run's own registry (its OCOR run). Every other bench accepts the
 * --trace flags but ignores them, and its --stats-json carries the
 * sweep aggregates: the runner's "runner.*" and the process-global
 * "sim.wall.*".
 *
 * Correctness flags (see DESIGN.md §11):
 *   --check[=LIST]          enable the runtime invariant checkers
 *                           "mutex", "vc-fifo", "onehot",
 *                           "arbitration", "credit", "rtr", "wakeup"
 *                           (comma-separated; bare --check means all)
 *
 * Deadline flag (see DESIGN.md §12):
 *   --deadline SEC   wall-clock deadline for a 16-thread 4-iteration
 *                    run, scaled with the request size: a finite
 *                    number >= 0 (0 = off, the default); a run that
 *                    passes it stops with partial metrics, which are
 *                    never journaled
 *
 * Numeric values are parsed in full: --seed and --trace-capacity
 * take a whole decimal integer that fits their field, and anything
 * malformed is a usage error. A sweep in which any run passed its
 * deadline still completes and exits 75 (EX_TEMPFAIL); rerunning it
 * is the retry. A run that hung or
 * reached maxCycles is never printed either, and its sweep exits 1.
 * Every simulation is deterministic, so rerunning a failed bench
 * reproduces its failure, and panic and fatal messages name the
 * failing run.
 */

#ifndef OCOR_BENCH_BENCH_UTIL_HH
#define OCOR_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "check/check_config.hh"
#include "common/trace.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_cache.hh"
#include "sim/simulator.hh"

namespace ocor::bench
{

/** Parsed common options. */
struct Options
{
    unsigned threads = 64;
    unsigned iterations = 4;
    std::uint64_t seed = 1;
    bool fresh = false;
    unsigned jobs = 0; ///< 0 = ThreadPool::defaultConcurrency()

    /** --profile: restrict suite benches to one profile ("" = all). */
    std::string profileFilter;

    // --- observability (every knob off/empty by default) -----------
    std::string traceCats;      ///< "" = tracing off
    std::string traceOut = "trace.json";
    std::size_t traceCapacity = std::size_t{1} << 19; ///< ring slots
    std::string statsJson;      ///< "" = no stats dump
    bool cohLedger = false;     ///< --coh-ledger (DESIGN.md §14)
    bool cohBreakdown = false;  ///< --coh-breakdown (implies ledger)

    /** --check selection ("" = the build's default mask). */
    std::string checkList;

    double deadline = 0.0;   ///< base deadline seconds (0 = off)

    bool tracing() const { return !traceCats.empty(); }
    bool checking() const { return !checkList.empty(); }

    /** The --check mask for a directly built SystemConfig. */
    unsigned
    checkMask() const
    {
        return checking() ? parseCheckList(checkList)
                          : defaultCheckMask();
    }

    ExperimentConfig
    experiment() const
    {
        ExperimentConfig exp;
        exp.threads = threads;
        exp.iterationsOverride = iterations;
        exp.seed = seed;
        exp.check.checks = checkMask();
        exp.cohLedger = cohLedger;
        return exp;
    }

    /** The profiles a suite bench should run: allProfiles(), or the
     * single --profile selection (unknown names abort loudly). */
    std::vector<BenchmarkProfile>
    profiles() const
    {
        if (profileFilter.empty())
            return allProfiles();
        return {profileByName(profileFilter)};
    }
};

/** Exit code for a sweep whose only incomplete runs passed their
 * deadline. */
constexpr int kExitTimedOut = 75; // EX_TEMPFAIL

/** @p text in full as a decimal T (std::nullopt otherwise). For an
 * unsigned T that means digits only: no sign, space or fraction, and
 * a value that fits. */
template <typename T>
std::optional<T>
parseNumber(const std::string &text)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || p != end)
        return std::nullopt;
    return v;
}

/** Print @p what and the usage line, then exit 1. */
[[noreturn]] inline void
usageError(const char *prog, const std::string &what)
{
    std::fprintf(stderr,
                 "%s\n"
                 "usage: %s [--threads N] [--iters N] "
                 "[--seed N] [--quick] [--fresh] "
                 "[--profile P] [--coh-ledger] "
                 "[--coh-breakdown] "
                 "[--jobs N] [--trace[=CATS]] "
                 "[--trace-out FILE] [--trace-capacity N] "
                 "[--stats-json FILE] "
                 "[--check[=LIST]] [--deadline SEC]\n",
                 what.c_str(), prog);
    std::exit(1);
}

/** Parse the common flags; unknown flags and a malformed number
 * abort with usage. */
inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             a.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        // --threads, --iters and --jobs take a whole positive decimal
        // integer, parsed by the one rule OCOR_JOBS follows too.
        auto count = [&]() -> unsigned {
            const std::string n = next();
            const auto v = ThreadPool::parseJobs(n);
            if (!v)
                usageError(argv[0], a + " takes a positive integer, "
                                        "not '" + n + "'");
            return *v;
        };
        // --seed and --trace-capacity take a whole decimal integer
        // that fits their field.
        auto whole = [&]<typename T>(const std::string &n, T &out) {
            const auto v = parseNumber<T>(n);
            if (!v)
                usageError(argv[0],
                           a + " takes a whole number up to " +
                               std::to_string(
                                   std::numeric_limits<T>::max()) +
                               ", not '" + n + "'");
            out = *v;
        };
        // "--flag=value" and "--flag value" are both accepted for
        // the value-carrying observability flags.
        auto valueOf = [&](const char *flag,
                           std::string &out) -> bool {
            if (a == flag) {
                out = next();
                return true;
            }
            std::string pfx = std::string(flag) + "=";
            if (a.rfind(pfx, 0) == 0) {
                out = a.substr(pfx.size());
                return true;
            }
            return false;
        };
        std::string v;
        if (a == "--threads")
            opt.threads = count();
        else if (a == "--iters")
            opt.iterations = count();
        else if (a == "--seed")
            whole(next(), opt.seed);
        else if (a == "--quick")
            opt.threads = 16;
        else if (a == "--fresh")
            opt.fresh = true;
        else if (valueOf("--profile", v))
            opt.profileFilter = v;
        else if (a == "--coh-ledger")
            opt.cohLedger = true;
        else if (a == "--coh-breakdown") {
            // The breakdown table is rendered from ledger cause
            // counters, so the flag implies --coh-ledger.
            opt.cohBreakdown = true;
            opt.cohLedger = true;
        }
        else if (a == "--jobs")
            opt.jobs = count();
        else if (a == "--trace")
            opt.traceCats = "all"; // bare form: everything
        else if (valueOf("--trace", v))
            opt.traceCats = v;
        else if (valueOf("--trace-out", v))
            opt.traceOut = v;
        else if (valueOf("--trace-capacity", v))
            whole(v, opt.traceCapacity);
        else if (valueOf("--stats-json", v))
            opt.statsJson = v;
        else if (a == "--check")
            opt.checkList = "all"; // bare form: every checker
        else if (valueOf("--check", v))
            opt.checkList = v;
        else if (valueOf("--deadline", v)) {
            const auto secs = parseNumber<double>(v);
            if (!secs || !std::isfinite(*secs) || *secs < 0.0)
                usageError(argv[0], "--deadline takes a finite number "
                                    "of seconds >= 0, not '" + v + "'");
            opt.deadline = *secs;
        }
        else
            usageError(argv[0], "unknown flag " + a);
    }
    return opt;
}

/**
 * The bench exit code after a sweep: 0 when every run was complete
 * (isComplete), kExitTimedOut (75) when the only incomplete runs
 * passed their deadline, and 1 when a run hung or reached maxCycles,
 * which rerunning reproduces. The runner already named each
 * incomplete run in a warning.
 */
inline int
sweepExitStatus(const ParallelRunner &runner)
{
    const std::uint64_t incomplete = runner.incompleteRuns();
    if (incomplete == 0)
        return 0;
    const int code = incomplete > runner.timeouts() ? 1 : kExitTimedOut;
    std::fprintf(stderr,
                 "sweep incomplete: %llu run(s) report partial metrics, "
                 "%llu of them past their deadline (exit %d)\n",
                 static_cast<unsigned long long>(incomplete),
                 static_cast<unsigned long long>(runner.timeouts()),
                 code);
    return code;
}

/**
 * @p results without the pairs that have an incomplete side: its
 * metrics are partial, and the runner has already named it in a
 * warning, so no table prints it.
 */
inline std::vector<BenchmarkResult>
completePairs(std::vector<BenchmarkResult> results)
{
    std::erase_if(results, [](const BenchmarkResult &r) {
        return !isComplete(r.base) || !isComplete(r.ocor);
    });
    return results;
}

/** @p sum / @p n, or 0 for an average over no rows. */
inline double
meanOf(double sum, std::size_t n)
{
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/**
 * The shared cache (per-working-directory TSV). --fresh and --check
 * runs get an in-memory one (empty path) instead, so nothing is
 * reused or polluted: a checked run exists for its checkers' verdict,
 * and a journal hit would run no checker. A -DOCOR_CHECK=ON build,
 * which arms every checker by default, still journals its unflagged
 * runs.
 */
inline ResultCache
cacheFor(const Options &opt)
{
    if (opt.fresh || opt.checking())
        return ResultCache("");
    return ResultCache("ocor_results.tsv");
}

/** Open @p path for writing, aborting loudly on failure. */
inline std::ofstream
openArtifact(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return out;
}

/**
 * The --stats-json export shared by every suite bench: the runner's
 * sweep counters (pool size and busy time, run times, timeouts)
 * plus the process-global "sim.wall.*" run aggregates (wall-clock
 * phase totals and processed/skipped cycles). No-op without
 * --stats-json.
 */
inline void
dumpStatsJson(const Options &opt, ParallelRunner *runner)
{
    if (opt.statsJson.empty())
        return;
    StatsRegistry reg;
    if (runner)
        runner->registerStats(reg);
    registerAggregateStats(reg);
    std::ofstream out = openArtifact(opt.statsJson);
    reg.dumpJson(out);
    std::printf("stats: %zu entries -> %s\n", reg.size(),
                opt.statsJson.c_str());
}

/** Export @p tracer to @p path as Chrome trace-event JSON and print
 * a one-line summary. */
inline void
writeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out = openArtifact(path);
    tracer.exportChromeJson(out);
    std::printf("trace: %llu events recorded (%llu overwritten) "
                "-> %s\n",
                static_cast<unsigned long long>(tracer.emitted()),
                static_cast<unsigned long long>(tracer.dropped()),
                path.c_str());
}

/** Horizontal ASCII bar scaled to @p width at @p full. */
inline std::string
bar(double value, double full, unsigned width = 40)
{
    if (full <= 0.0)
        full = 1.0;
    double frac = value / full;
    if (frac < 0)
        frac = 0;
    if (frac > 1)
        frac = 1;
    unsigned n = static_cast<unsigned>(frac * width + 0.5);
    std::string s(n, '#');
    s.resize(width, ' ');
    return s;
}

/** Section header shared by all benches. */
inline void
banner(const char *what)
{
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s\n", what);
    std::printf("OCOR reproduction (Yao & Lu, ISCA 2016)\n");
    std::printf("=============================================="
                "==============================\n");
}

} // namespace ocor::bench

#endif // OCOR_BENCH_BENCH_UTIL_HH
