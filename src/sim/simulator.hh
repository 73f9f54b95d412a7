/**
 * @file
 * Simulator: the cycle loop, the COH/CS/compute accounting oracle,
 * ROI bookkeeping and optional timeline recording.
 */

#ifndef OCOR_SIM_SIMULATOR_HH
#define OCOR_SIM_SIMULATOR_HH

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"

namespace ocor
{

class Tracer;
class LockLedger;

/** Optional simulation-run features. */
struct SimOptions
{
    /** Record per-cycle activity for the first N cycles... */
    Cycle timelineHorizon = 0;
    /** ...of the first M threads (0 = all). */
    unsigned timelineThreads = 0;

    /** Break run() wall time down by phase (tick vs accounting).
     * Adds two clock reads per cycle, so it is opt-in. */
    bool profileWall = false;

    /**
     * Wall-clock deadline: when set (not the default epoch value),
     * run() reads the clock on the (coarse) watchdog poll stride and
     * stops at the first poll cycle past it, with
     * RunMetrics::cancelled set. Unset (the default) adds no clock
     * read.
     */
    std::chrono::steady_clock::time_point deadline{};

    /**
     * COH attribution ledger: split every blocked-idle (competition
     * overhead) cycle into a named cause — transfer, arbitration,
     * backoff, sleep, grant gap — per lock and per thread
     * (DESIGN.md §14). Off by default; a ledger run's aggregate
     * counters are identical to a plain run's, the split is pure
     * refinement.
     */
    bool cohLedger = false;
};

/** Host wall-clock cost of one run() (never enters sim results). */
struct WallProfile
{
    double totalSeconds = 0.0;   ///< whole run(), always measured
    double tickSeconds = 0.0;    ///< System::tick (profileWall only)
    double accountSeconds = 0.0; ///< accounting (profileWall only)
    double schedSeconds = 0.0;   ///< wake scan (profileWall only)
    std::uint64_t cycles = 0;    ///< simulated cycles covered

    /**
     * Cycles the loop ticked and the quiet cycles it jumped over.
     * Together they cover cycles 0..stop: processed + skipped ==
     * cycles + 1 when the run stops on a processed cycle (threads
     * finished, watchdog, deadline), and == cycles when it runs out at
     * the maxCycles horizon, which is never processed.
     */
    std::uint64_t cyclesProcessed = 0;
    std::uint64_t cyclesSkipped = 0;
};

/**
 * Register the process-global run aggregates: every run() folds its
 * wall profile into one thread-safe total, because benches execute
 * simulations deep inside the result cache / parallel runner where
 * no Simulator survives to stats-registration time. Registers
 * "sim.wall.*" (unless a live Simulator already registered its own
 * run's view) plus "sim.wall.runs", read at dump time.
 */
void registerAggregateStats(StatsRegistry &reg);

/** Drives one System instance through its region of interest. */
class Simulator
{
  public:
    using Options = SimOptions;

    Simulator(const SystemConfig &cfg, std::vector<Program> programs,
              const BgTrafficConfig &bg, Options opts = {});

    ~Simulator();

    /**
     * Run until every thread finishes (or maxCycles). Returns the
     * aggregated metrics; per-thread counters are also left in the
     * PCBs for white-box inspection.
     */
    RunMetrics run();

    System &system() { return *system_; }
    const Timeline &timeline() const { return timeline_; }
    const WallProfile &wallProfile() const { return wall_; }

    /** Per-thread lock-state dump captured when the forward-progress
     * watchdog fired (empty otherwise). */
    const std::string &hangDiagnosis() const { return hangDiagnosis_; }

    /**
     * Register the System's component counters plus this run's wall
     * profile ("sim.wall.*": total/tick/account/sched seconds and
     * the processed/skipped cycle split). The registry reads from
     * this Simulator at dump time, so it must not outlive it.
     */
    void registerStats(StatsRegistry &reg);

    /** COH attribution ledger; null unless opts.cohLedger. */
    const LockLedger *ledger() const { return ledger_.get(); }

  private:
    /**
     * The simulation loop: process a cycle (gated System::tick,
     * accounting, checkers, stop tests), then jump to the earlier of
     * System::nextWake and the watchdog/deadline poll stride,
     * charging the skipped span in bulk. With checkers armed every
     * cycle is processed.
     */
    void runLoop(Tracer *tr, CheckerRegistry *ck);

    /**
     * Charge cycles [from, to) to every live thread in one step and
     * record them on the timeline. The one accounting routine: a
     * processed cycle is the span [now, now + 1), a skipped stretch
     * is [now + 1, next). No component ticks again before @p to, so
     * each thread's verdict is constant across the span and
     * multiplies out.
     */
    void accountSpan(Cycle from, Cycle to);

    /**
     * Ledger refinement of a blocked-idle charge: split the span
     * [@p from, @p to) of thread @p t waiting on @p lock into COH
     * causes (the transfer/arbitration boundary falls at the try's
     * departure plus the uncontended round-trip budget). Charges
     * both the thread counters and the per-lock ledger; the pieces
     * sum to the span by construction.
     */
    void chargeCohCauses(ThreadId t, Pcb &pcb, Addr lock, Cycle from,
                         Cycle to);

    /** Uncontended LockTry round-trip budget of (thread, lock):
     * 2 mesh transits of a 1-flit packet plus the home latency. */
    Cycle tryBudget(ThreadId t, Addr lock);

    /** Monotone counter that stalls exactly when the run is wedged. */
    std::uint64_t progressSignal() const;

    std::string diagnoseHang() const;

    SystemConfig cfg_;
    std::unique_ptr<System> system_;
    Options opts_;
    Timeline timeline_;
    WallProfile wall_;
    Cycle now_ = 0;
    bool hangDetected_ = false;
    bool cancelled_ = false;
    std::string hangDiagnosis_;

    /** Threads not yet Finished: the only ones accounting walks. */
    std::vector<ThreadId> live_;

    /** COH attribution ledger (null = off). */
    std::unique_ptr<LockLedger> ledger_;
};

} // namespace ocor

#endif // OCOR_SIM_SIMULATOR_HH
