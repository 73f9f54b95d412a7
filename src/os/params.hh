/**
 * @file
 * Cost parameters of the OS synchronization primitives.
 */

#ifndef OCOR_OS_PARAMS_HH
#define OCOR_OS_PARAMS_HH

namespace ocor
{

/** Queue-spinlock and futex timing model. */
struct OsParams
{
    /**
     * cpu_relax() delay of one local spin-loop iteration (Algorithm
     * 1, line 9). The MAX_SPIN_COUNT budget burns one retry per
     * interval while the thread polls its cached lock line, so the
     * sleeping phase begins maxSpinCount * retryInterval cycles
     * after spinning starts, independent of network conditions.
     */
    unsigned retryInterval = 100;

    /**
     * Cadence of *remote* atomic_try_lock revalidations while
     * spinning. Between release invalidations, a spinner re-issues
     * its locking request every remoteTryInterval cycles, so locking
     * requests from all spinners are continuously in flight and race
     * through the NoC — the traffic OCOR's router rules reorder.
     */
    unsigned remoteTryInterval = 30;

    /**
     * Cycles to prepare a thread for sleep: registering in the lock
     * queue and context switching out (sys_futex FUTEX_WAIT path).
     */
    unsigned sleepPrepCycles = 2000;

    /**
     * Cycles to wake a sleeping thread back up to the point where it
     * can issue a locking request again (context switch in).
     */
    unsigned wakeupCycles = 3000;

    /** Lock-word access latency at its home L2 bank. */
    unsigned homeLatency = 6;

    /**
     * Delay between the atomic_release store and the FUTEX_WAKE
     * request leaving the core (Algorithm 2 program order plus the
     * sys_futex syscall entry cost). This is the window in which a
     * spinning thread's retry can steal the lock from the sleeping
     * queue head — the race OCOR's Wakeup-Request-Last rule biases.
     */
    unsigned futexWakeDelay = 40;

    /**
     * Liveness safety net: when a release leaves sleepers queued, the
     * home re-attempts a wakeup after this many cycles in case the
     * holder's FUTEX_WAKE packet was consumed while the lock was
     * still held (it raced ahead of the release). Generous on
     * purpose — it must not perturb the wakeup-vs-spinner races the
     * paper studies.
     */
    unsigned wakeRetryDelay = 6000;
};

} // namespace ocor

#endif // OCOR_OS_PARAMS_HH
