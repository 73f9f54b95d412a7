/**
 * @file
 * Pure lock/wakeup protocol transition functions (DESIGN.md §15).
 *
 * The queue-spinlock client (QSpinlock) and the lock-word home
 * (LockManager) both delegate every *protocol decision* — who gets
 * the lock, when a spinner parks, which messages go out in response
 * to which — to the two step functions declared here. The functions
 * are pure state machines: they mutate only the passed-in state
 * structs and report what happened through a result struct; they
 * never touch packets, cycles, stats, traces or checkers. The
 * simulator layers all of that on top (os/qspinlock.cc,
 * os/lock_manager.cc), and the bounded model checker (src/verify)
 * drives exactly the same functions with nondeterministic message
 * delivery — so the verified model cannot drift from the simulated
 * implementation.
 *
 * Time is deliberately abstracted out. The only two time-dependent
 * predicates in the protocol — "has the spin budget expired?" and
 * "has a timer fired?" — are *inputs* to clientStep: the simulator
 * computes them from real cycle arithmetic, the model checker
 * enumerates both truth values. Everything discrete (phase changes,
 * message emission, queue/poller bookkeeping, grant decisions) lives
 * below this line and is shared.
 *
 * Scope: the protocol over a reliable NoC, where every message
 * arrives exactly once. An event this protocol cannot produce — a
 * grant or LockFail with no try in flight, a WakeNotify to a thread
 * that is not asleep, a LockTry or FutexWait from the holder, a
 * second FutexWait from a queued thread — violates a step
 * function's precondition and panics inside it, so QSpinlock,
 * LockManager and the model checker reject it in one place.
 */

#ifndef OCOR_OS_PROTOCOL_STEP_HH
#define OCOR_OS_PROTOCOL_STEP_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace ocor
{
namespace proto
{

/** Lock-protocol message kinds (the lock subset of MsgType). */
enum class MsgKind : std::uint8_t
{
    LockTry,
    LockGrant,
    LockFail,
    LockFreeNotify,
    LockRelease,
    FutexWait,
    FutexWake,
    WakeNotify,
    NumKinds
};

/** Stable name of a message kind (traces, replay files). */
const char *msgKindName(MsgKind k);

/** Parse a msgKindName() string; returns NumKinds on no match. */
MsgKind msgKindFromName(const char *name);

// ====================================================================
// Client side (QSpinlock)
// ====================================================================

/** Waiting phase of the client state machine (mirrors ThreadState
 * while an acquisition is active). */
enum class ClientPhase : std::uint8_t
{
    Idle,      ///< no acquisition active (Running / Finished / InCS)
    Spinning,  ///< low-overhead spinning, budget burning
    SleepPrep, ///< context switch out under way
    Sleeping,  ///< parked in the home wait queue
    Waking     ///< context switch in after WakeNotify
};

/** Client-side timers (which one is armed, if any). */
enum class ClientTimer : std::uint8_t
{
    None,
    Retry,     ///< next remote revalidation (or budget expiry)
    SleepPrep, ///< context switch out completes
    Wakeup     ///< context switch in completes
};

/** Pure client protocol state (embedded in QSpinlock). */
struct ClientState
{
    bool active = false;    ///< an acquisition is in progress
    bool holding = false;   ///< inside / entering the critical section
    bool tryInFlight = false; ///< a LockTry awaits its verdict
    bool everSlept = false; ///< this attempt entered the sleep path
    ClientPhase phase = ClientPhase::Idle;
    ClientTimer timer = ClientTimer::None;
};

/** Events the client reacts to. */
enum class ClientEvent : std::uint8_t
{
    Acquire,       ///< thread requests the lock
    MsgLockGrant,  ///< LockGrant arrived
    MsgLockFail,   ///< LockFail arrived
    MsgLockFreeNotify, ///< release invalidation arrived
    MsgWakeNotify, ///< WakeNotify arrived
    TimerFire,     ///< the armed timer is due (caller clears timing)
    Release        ///< thread leaves the critical section
};

/** Time-dependent predicates the caller supplies. */
struct ClientInputs
{
    /** Message addressed to the lock word of the current attempt
     * (always true for Acquire / TimerFire / Release). */
    bool sameLock = true;

    /** now >= sleepDeadline(): the spin budget has expired. Consulted
     * on MsgLockFail and Retry-timer fires only. */
    bool budgetExhausted = false;
};

/** What the caller must do after a client step. */
enum class ClientAction : std::uint8_t
{
    None,           ///< nothing (an ignored LockFreeNotify)
    SendTry,        ///< issue a LockTry (stamp RTR/PROG, send)
    ArmRetryTimer,  ///< arm Timer::Retry at the remote-try cadence
    BeginSleepPrep, ///< arm Timer::SleepPrep (sleep path entered)
    RegisterWait,   ///< send FutexWait (now Sleeping)
    EnterCs,        ///< the lock is won: run the entry bookkeeping
    StartWaking,    ///< arm Timer::Wakeup (context switch in)
    SendRelease,    ///< send LockRelease + arm the FUTEX_WAKE delay
    NumActions
};

/** Result of one client step. */
struct ClientResult
{
    ClientAction action = ClientAction::None;

    /** The step consumed one failed-try retry (pcb counter). */
    bool countRetry = false;
};

/**
 * Advance the client state machine by one event.
 *
 * Preconditions, each an ocor_panic when violated: Acquire requires
 * no acquisition in progress and no lock held; LockGrant and
 * LockFail require a spinning attempt on the same lock with its try
 * in flight; WakeNotify requires a sleeping attempt on the same
 * lock; TimerFire requires an armed timer whose phase still holds;
 * Release requires the lock held. A LockFreeNotify is accepted in
 * any state. TimerFire consumes the armed timer (state.timer is
 * cleared before dispatch, matching QSpinlock::tick's one-shot
 * semantics).
 */
ClientResult clientStep(ClientState &s, ClientEvent ev,
                        const ClientInputs &in);

// ====================================================================
// Home side (LockManager)
// ====================================================================

/** Pure home-side state of one lock word. */
struct HomeLockState
{
    bool held = false;
    ThreadId holder = invalidThread;

    /** Sleeping waiters: (thread, its node), FIFO. */
    std::deque<std::pair<ThreadId, NodeId>> waitQueue;

    /** Spinning threads polling a cached copy of the lock line:
     * they get a LockFreeNotify invalidation on release. */
    std::vector<std::pair<ThreadId, NodeId>> pollers;
};

/** What happened at the home (drives stats / trace mapping). */
enum class HomeOutcome : std::uint8_t
{
    Granted,        ///< LockTry won: fresh grant
    Failed,         ///< LockTry lost: poller registered
    Released,       ///< release accepted, pollers invalidated
    StrayRelease,   ///< release of a free/foreign lock absorbed
    Queued,         ///< FutexWait parked the thread
    ImmediateWake,  ///< FutexWait found the lock free: granted
    Woken,          ///< FutexWake granted the queue head
    WakeNoop,       ///< FutexWake found lock held / queue empty
    NumOutcomes
};

/** One message the home must send after a step. */
struct HomeSend
{
    MsgKind kind = MsgKind::LockGrant;
    ThreadId thread = invalidThread;
    NodeId node = invalidNode;
};

/** Result of one home step. */
struct HomeResult
{
    HomeOutcome outcome = HomeOutcome::WakeNoop;

    /** A new holder was chosen (handover bookkeeping point). */
    bool grantDecision = false;

    /** Sleepers remain queued after a release: arm the
     * wakeRetryDelay FutexWake safety net. */
    bool scheduleWakeRetry = false;

    /** Outbound messages, in exact emission order. */
    std::vector<HomeSend> sends;
};

/**
 * Process one inbound protocol message at the lock word's home.
 *
 * Preconditions, each an ocor_panic when violated: @p kind is
 * home-bound; a LockTry or FutexWait never comes from the holder; a
 * FutexWait never comes from a thread already queued. A LockRelease
 * from a thread that does not hold the lock is absorbed
 * (StrayRelease): a buggy client must not free someone else's lock.
 */
HomeResult homeStep(HomeLockState &lock, MsgKind kind, ThreadId tid,
                    NodeId src);

} // namespace proto
} // namespace ocor

#endif // OCOR_OS_PROTOCOL_STEP_HH
