/**
 * @file
 * Process Control Block: per-thread OS state.
 *
 * Section 4.1 extends the Linux PCB with a PROG field counting the
 * critical sections a thread has completed; the queue spinlock writes
 * PROG and the current RTR into core-local registers that the NI
 * reads when packetizing locking requests.
 */

#ifndef OCOR_OS_PCB_HH
#define OCOR_OS_PCB_HH

#include <cstdint>

#include "common/types.hh"

namespace ocor
{

/** Lifecycle of a simulated thread. */
enum class ThreadState : std::uint8_t
{
    Running,    ///< executing parallel (non-critical) work
    Spinning,   ///< queue spinlock, low-overhead spinning phase
    SleepPrep,  ///< preparing to sleep (futex registration path)
    Sleeping,   ///< parked in the lock queue, core idle
    Waking,     ///< context-switching back in after WakeNotify
    InCS,       ///< executing the critical section
    Finished    ///< program complete
};

/** Name of a thread state (traces and tests). */
const char *threadStateName(ThreadState s);

/**
 * Raw per-thread counters (aggregated by sim/metrics). A plain value
 * type: forEachField lists every counter once, and sums, the stats
 * registry and the results journal are driven by it; == is defaulted
 * over the same members.
 */
struct ThreadCounters
{
    std::uint64_t computeCycles = 0;
    std::uint64_t csCycles = 0;
    /** Blocked while the lock was held by another thread. */
    std::uint64_t blockedHeldCycles = 0;
    /** Blocked while the lock was free: pure competition overhead. */
    std::uint64_t blockedIdleCycles = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t spinWins = 0;   ///< acquired while still spinning
    std::uint64_t sleepWins = 0;  ///< acquired after entering sleep
    std::uint64_t retries = 0;    ///< failed atomic_try_lock attempts
    std::uint64_t sleeps = 0;     ///< times the sleeping phase began

    // --- COH cause split (populated only when the lock ledger is
    //     attached; always sums exactly to blockedIdleCycles) --------
    std::uint64_t cohTransferCycles = 0;  ///< NoC round trip in budget
    std::uint64_t cohArbitrationCycles = 0; ///< try in flight, late
    std::uint64_t cohBackoffCycles = 0;   ///< local RTR retry backoff
    std::uint64_t cohSleepCycles = 0;     ///< futex sleep / sleep prep
    std::uint64_t cohGrantGapCycles = 0;  ///< waking, lock reserved

    /**
     * Call @p v(name, &ThreadCounters::field) for every counter, in
     * declaration order. The names are the stats registry's
     * (`system.thread<n>.<name>`).
     */
    template <typename Visitor>
    static void
    forEachField(Visitor &&v)
    {
        // Fails to compile when a counter is added but not listed.
        [[maybe_unused]] auto [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9,
                               f10, f11, f12, f13] = ThreadCounters{};
        v("compute_cycles", &ThreadCounters::computeCycles);
        v("cs_cycles", &ThreadCounters::csCycles);
        v("blocked_held_cycles", &ThreadCounters::blockedHeldCycles);
        v("blocked_idle_cycles", &ThreadCounters::blockedIdleCycles);
        v("acquisitions", &ThreadCounters::acquisitions);
        v("spin_wins", &ThreadCounters::spinWins);
        v("sleep_wins", &ThreadCounters::sleepWins);
        v("retries", &ThreadCounters::retries);
        v("sleeps", &ThreadCounters::sleeps);
        v("coh_transfer_cycles", &ThreadCounters::cohTransferCycles);
        v("coh_arbitration_cycles",
          &ThreadCounters::cohArbitrationCycles);
        v("coh_backoff_cycles", &ThreadCounters::cohBackoffCycles);
        v("coh_sleep_cycles", &ThreadCounters::cohSleepCycles);
        v("coh_grant_gap_cycles", &ThreadCounters::cohGrantGapCycles);
    }

    bool operator==(const ThreadCounters &) const = default;

    ThreadCounters &
    operator+=(const ThreadCounters &o)
    {
        forEachField([&](const char *, auto f) { this->*f += o.*f; });
        return *this;
    }
};

/** Per-thread OS bookkeeping. */
struct Pcb
{
    ThreadId tid = invalidThread;
    NodeId node = invalidNode;
    ThreadState state = ThreadState::Running;

    /** PROG: completed critical sections (Algorithm 2, line 3). */
    std::uint64_t prog = 0;

    /** Core-local registers written by the queue spinlock
     * (Algorithm 1, line 6) and read by the NI when stamping
     * priority fields. */
    unsigned regRtr = 0;
    std::uint64_t regProg = 0;

    ThreadCounters counters;
};

} // namespace ocor

#endif // OCOR_OS_PCB_HH
