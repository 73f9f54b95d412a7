/**
 * @file
 * Crash capture and deterministic failure replay (DESIGN.md §12).
 *
 * install() registers an async-signal-safe handler for SIGSEGV,
 * SIGABRT and SIGTERM that writes a small plain-text dump before the
 * process dies: the signal, coarse sweep progress, one `repro` line
 * per simulation in flight at the instant of the crash, and the tail
 * of the trace ring when a tracer is attached. Because every
 * simulation is bit-identical given (profile, experiment knobs,
 * seed), that repro line is a complete reproduction recipe: feed the
 * dump back to any bench binary via `--replay <dump>` and it re-runs
 * the exact failing configuration deterministically.
 *
 * The handler plays by signal rules: it touches only pre-formatted
 * fixed-size buffers and lock-free atomics, and performs I/O with
 * open()/write() plus hand-rolled integer formatting — no malloc, no
 * stdio, no iostream, no mutex (scripts/simlint.py's signal-unsafe
 * rule enforces this). All formatting work happens *outside* the
 * handler: RunScope pre-renders its repro line at simulation start.
 */

#ifndef OCOR_SIM_CRASHDUMP_HH
#define OCOR_SIM_CRASHDUMP_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/experiment.hh"

namespace ocor
{

class Tracer;

namespace crashdump
{

/** First line of every dump file (without newline). */
const char *dumpHeader();

/**
 * Install the crash handler, writing dumps to @p path. Idempotent;
 * a second call re-points the dump path. The handler chains to the
 * default disposition after dumping (the process still dies and the
 * shell still sees the signal).
 */
void install(const std::string &path);

/** Whether install() has run in this process. */
bool installed();

/** The dump path installed (empty before install()). */
const char *dumpPath();

/**
 * Attach the tracer whose ring tail (last ~32 records) the handler
 * should append to dumps. Pass nullptr before the tracer dies; the
 * handler only dereferences the currently attached pointer.
 */
void setTracer(const Tracer *tracer);

/** Coarse sweep progress shown in the dump header (runner hook). */
void noteRunnerProgress(std::uint64_t runs);

/**
 * The `repro\t...` line identifying one simulation (no newline):
 * benchmark, threads, iterations, seed, OCOR flag — exactly the
 * inputs a deterministic re-run needs.
 */
std::string reproLine(const BenchmarkProfile &profile,
                      const ExperimentConfig &exp, bool ocor_enabled);

/**
 * Marks "this thread is simulating (profile, exp, ocor)" for the
 * lifetime of the scope, so a crash mid-simulation names its exact
 * configuration. Slot-limited: past kSlots concurrent simulations,
 * extra scopes are silently untracked (correctness never depends on
 * a slot). runOnce() opens one around every simulation.
 */
class RunScope
{
  public:
    static constexpr int kSlots = 64;

    RunScope(const BenchmarkProfile &profile,
             const ExperimentConfig &exp, bool ocor_enabled);
    ~RunScope();

    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

  private:
    int slot_ = -1;
};

/** One parsed `repro` line: everything --replay needs. */
struct ReplaySpec
{
    std::string benchmark;
    unsigned threads = 64;
    unsigned iterations = 0; ///< 0 = profile default
    std::uint64_t seed = 1;
    bool ocorEnabled = false;
};

/**
 * Parse the first `repro` line of dump @p path. std::nullopt when
 * the file is missing, not a dump, or carries no repro line (e.g.
 * the crash hit outside any simulation).
 */
std::optional<ReplaySpec> parseDump(const std::string &path);

/**
 * Write a dump describing @p reason right now, from normal (not
 * signal) context. Test hook and manual diagnostic; uses the same
 * writer as the handler.
 */
bool dumpNow(const char *reason);

} // namespace crashdump

} // namespace ocor

#endif // OCOR_SIM_CRASHDUMP_HH
