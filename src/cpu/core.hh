/**
 * @file
 * Core model: interprets a thread's program, drives the private L1
 * for data accesses and the queue spinlock for critical sections,
 * and generates the thread's background memory traffic.
 *
 * One core runs one thread (the paper's configuration). Background
 * traffic models the application's concurrent non-critical memory
 * activity: fire-and-forget loads/stores to a shared address pool at
 * a configurable per-cycle rate, issued only while the thread is
 * actually running on the core (Running / InCS states).
 */

#ifndef OCOR_CPU_CORE_HH
#define OCOR_CPU_CORE_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "mem/l1_cache.hh"
#include "os/pcb.hh"
#include "os/qspinlock.hh"
#include "workload/program.hh"

namespace ocor
{

/** Background-traffic knobs (the network-utilization axis). */
struct BgTrafficConfig
{
    /** Accesses issued per cycle (mean of a Bernoulli process). */
    double rate = 0.0;

    /** Fraction of background accesses that are stores. */
    double storeFraction = 0.3;

    /** Base of the shared background address pool. */
    Addr poolBase = 0x4000'0000;

    /** Pool size in cache lines. */
    std::uint64_t poolLines = 1 << 14;
};

/** Core observability counters. */
struct CoreStats
{
    std::uint64_t opsExecuted = 0;
    std::uint64_t fgLoads = 0;
    std::uint64_t fgStores = 0;
    std::uint64_t bgAccesses = 0;
    std::uint64_t bgRejected = 0;
    std::uint64_t fgRetries = 0;
};

/** One processor node: core + thread context. */
class Core
{
  public:
    Core(Pcb &pcb, L1Cache &l1, QSpinlock &qspin, Program program,
         const BgTrafficConfig &bg, std::uint64_t seed,
         Addr lock_region_base, unsigned line_bytes);

    /** Advance one cycle. */
    void tick(Cycle now);

    bool finished() const
    {
        return pcb_.state == ThreadState::Finished;
    }

    /**
     * Earliest cycle tick() would do any work; may be in the past
     * (overdue = due immediately; the run loop clamps). Mirrors
     * tick()/step()'s guards: background traffic fires only while
     * the thread is on the core (Running / InCS — a foreground
     * memory stall keeps the state Running, so bg still fires), and
     * step() runs only when not waiting and past busyUntil_. While
     * waiting, progress arrives via L1/qspinlock callbacks, which
     * run in earlier tick slots of the same cycle.
     */
    Cycle
    nextWake() const
    {
        if (pcb_.state == ThreadState::Finished)
            return neverCycle;
        Cycle w = neverCycle;
        if (bg_.rate > 0 && (pcb_.state == ThreadState::Running ||
                             pcb_.state == ThreadState::InCS))
            w = nextBg_;
        if (!waitingMem_ && !waitingLock_ && busyUntil_ < w)
            w = busyUntil_;
        return w;
    }
    Cycle finishCycle() const { return finishCycle_; }
    const CoreStats &stats() const { return stats_; }
    const Program &program() const { return program_; }

    /** Lock index -> lock word address (one line per lock). */
    Addr lockAddr(std::uint64_t lock_idx) const;

  private:
    void maybeIssueBackground(Cycle now);
    void step(Cycle now);

    Pcb &pcb_;
    L1Cache &l1_;
    QSpinlock &qspin_;
    Program program_;
    BgTrafficConfig bg_;
    Rng rng_;
    Addr lockRegionBase_;
    unsigned lineBytes_;

    std::size_t pc_ = 0;
    Cycle busyUntil_ = 0;    ///< compute op completion
    bool waitingMem_ = false;
    bool waitingLock_ = false;
    bool memRetry_ = false;  ///< foreground access was rejected
    Cycle nextBg_ = 0;
    Cycle finishCycle_ = neverCycle;

    CoreStats stats_;
};

} // namespace ocor

#endif // OCOR_CPU_CORE_HH
