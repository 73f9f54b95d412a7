#include "os/protocol_step.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.hh"

namespace ocor
{
namespace proto
{

const char *
msgKindName(MsgKind k)
{
    switch (k) {
      case MsgKind::LockTry:        return "LockTry";
      case MsgKind::LockGrant:      return "LockGrant";
      case MsgKind::LockFail:       return "LockFail";
      case MsgKind::LockFreeNotify: return "LockFreeNotify";
      case MsgKind::LockRelease:    return "LockRelease";
      case MsgKind::FutexWait:      return "FutexWait";
      case MsgKind::FutexWake:      return "FutexWake";
      case MsgKind::WakeNotify:     return "WakeNotify";
      default:                      return "?";
    }
}

MsgKind
msgKindFromName(const char *name)
{
    for (unsigned k = 0;
         k < static_cast<unsigned>(MsgKind::NumKinds); ++k) {
        MsgKind kind = static_cast<MsgKind>(k);
        if (std::strcmp(msgKindName(kind), name) == 0)
            return kind;
    }
    return MsgKind::NumKinds;
}

// --- client ---------------------------------------------------------

namespace
{

void
require(bool holds, const char *violation)
{
    if (!holds)
        ocor_panic("clientStep: %s", violation);
}

/** The attempt's one LockTry awaits its verdict: the state a
 * LockGrant or LockFail must find. */
bool
awaitingVerdict(const ClientState &s, const ClientInputs &in)
{
    return s.active && in.sameLock && s.tryInFlight &&
        s.phase == ClientPhase::Spinning;
}

void
enterCs(ClientState &s, ClientResult &out)
{
    s.active = false;
    s.holding = true;
    s.tryInFlight = false;
    s.timer = ClientTimer::None;
    s.phase = ClientPhase::Idle;
    out.action = ClientAction::EnterCs;
}

void
beginSleepPrep(ClientState &s, ClientResult &out)
{
    s.everSlept = true;
    s.phase = ClientPhase::SleepPrep;
    s.timer = ClientTimer::SleepPrep;
    out.action = ClientAction::BeginSleepPrep;
}

} // namespace

ClientResult
clientStep(ClientState &s, ClientEvent ev, const ClientInputs &in)
{
    ClientResult out;

    switch (ev) {
      case ClientEvent::Acquire:
        require(!s.active && !s.holding, "acquire while busy");
        s.active = true;
        s.everSlept = false;
        s.tryInFlight = true;
        s.phase = ClientPhase::Spinning;
        out.action = ClientAction::SendTry;
        break;

      case ClientEvent::MsgLockGrant:
        require(awaitingVerdict(s, in), "LockGrant with no try in flight");
        enterCs(s, out);
        break;

      case ClientEvent::MsgLockFail:
        require(awaitingVerdict(s, in), "LockFail with no try in flight");
        s.tryInFlight = false;
        if (in.budgetExhausted) {
            beginSleepPrep(s, out);
            break;
        }
        // Keep polling locally and revalidate remotely at the
        // remote-try cadence (capped by the budget deadline).
        s.timer = ClientTimer::Retry;
        out.action = ClientAction::ArmRetryTimer;
        break;

      case ClientEvent::MsgLockFreeNotify:
        // The home invalidated our cached copy of this lock's line:
        // the lock was released. Race a fresh atomic locking request
        // immediately (Fig. 4a) instead of waiting out the remote-try
        // timer. A notice for another lock, one that finds a try
        // already in flight, or one that reaches a thread no longer
        // spinning is ignored.
        if (in.sameLock && s.active &&
            s.phase == ClientPhase::Spinning && !s.tryInFlight) {
            s.timer = ClientTimer::None;
            s.tryInFlight = true;
            out.action = ClientAction::SendTry;
            out.countRetry = true;
        }
        break;

      case ClientEvent::MsgWakeNotify:
        // The home woke this thread *and* reserved the lock for it
        // (queue-spinlock: the woken waiter secures the lock).
        require(s.active && in.sameLock &&
                    s.phase == ClientPhase::Sleeping,
                "WakeNotify to a thread that is not asleep");
        s.phase = ClientPhase::Waking;
        s.timer = ClientTimer::Wakeup;
        out.action = ClientAction::StartWaking;
        break;

      case ClientEvent::TimerFire:
        switch (std::exchange(s.timer, ClientTimer::None)) {
          case ClientTimer::Retry:
            require(s.active && s.phase == ClientPhase::Spinning &&
                        !s.tryInFlight,
                    "retry timer outside a spinning wait");
            if (in.budgetExhausted) {
                beginSleepPrep(s, out);
                break;
            }
            s.tryInFlight = true;
            out.action = ClientAction::SendTry;
            out.countRetry = true;
            break;

          case ClientTimer::SleepPrep:
            require(s.active && s.phase == ClientPhase::SleepPrep,
                    "sleep-prep timer outside sleep prep");
            s.phase = ClientPhase::Sleeping;
            out.action = ClientAction::RegisterWait;
            break;

          case ClientTimer::Wakeup:
            require(s.active && s.phase == ClientPhase::Waking,
                    "wakeup timer outside waking");
            enterCs(s, out);
            break;

          case ClientTimer::None:
            ocor_panic("clientStep: timer fired with none armed");
        }
        break;

      case ClientEvent::Release:
        require(s.holding, "release without hold");
        s.holding = false;
        s.phase = ClientPhase::Idle;
        out.action = ClientAction::SendRelease;
        break;
    }
    return out;
}

// --- home -----------------------------------------------------------

namespace
{

void
dropPoller(HomeLockState &lock, ThreadId tid)
{
    std::erase_if(lock.pollers, [tid](const auto &p) {
        return p.first == tid;
    });
}

bool
listed(const auto &entries, ThreadId tid)
{
    return std::any_of(entries.begin(), entries.end(),
                       [tid](const auto &p) { return p.first == tid; });
}

} // namespace

HomeResult
homeStep(HomeLockState &lock, MsgKind kind, ThreadId tid, NodeId src)
{
    HomeResult out;
    const bool fromHolder = lock.held && lock.holder == tid;

    switch (kind) {
      case MsgKind::LockTry:
        if (fromHolder)
            ocor_panic("homeStep: LockTry from t%u, which holds the "
                       "lock", tid);
        if (!lock.held) {
            lock.held = true;
            lock.holder = tid;
            dropPoller(lock, tid);
            out.outcome = HomeOutcome::Granted;
            out.grantDecision = true;
            out.sends.push_back({MsgKind::LockGrant, tid, src});
        } else {
            // The loser keeps a cached (shared) copy of the lock
            // line and polls it locally; remember to invalidate it
            // on release (Figure 4).
            if (!listed(lock.pollers, tid))
                lock.pollers.emplace_back(tid, src);
            out.outcome = HomeOutcome::Failed;
            out.sends.push_back({MsgKind::LockFail, tid, src});
        }
        break;

      case MsgKind::LockRelease:
        if (!fromHolder) {
            // Stray release: absorb — honoring it would free a lock
            // someone else holds.
            out.outcome = HomeOutcome::StrayRelease;
            break;
        }
        lock.held = false;
        lock.holder = invalidThread;
        out.outcome = HomeOutcome::Released;
        // Invalidate every polling sharer's cached copy: the
        // spinning threads race fresh atomic requests back
        // (Figure 4a, T4/T5).
        for (const auto &[ptid, pnode] : lock.pollers)
            out.sends.push_back(
                {MsgKind::LockFreeNotify, ptid, pnode});
        // Liveness safety net (see OsParams::wakeRetryDelay).
        out.scheduleWakeRetry = !lock.waitQueue.empty();
        break;

      case MsgKind::FutexWait:
        if (fromHolder)
            ocor_panic("homeStep: FutexWait from t%u, which holds the "
                       "lock", tid);
        if (listed(lock.waitQueue, tid))
            ocor_panic("homeStep: FutexWait from t%u, which is "
                       "already queued", tid);
        dropPoller(lock, tid);
        if (!lock.held) {
            // Futex value re-check semantics: the lock was released
            // between the budget expiry and the registration, so
            // the waiter is granted immediately (it already context
            // switched out, so it still pays the wakeup path).
            lock.held = true;
            lock.holder = tid;
            out.outcome = HomeOutcome::ImmediateWake;
            out.grantDecision = true;
            out.sends.push_back({MsgKind::WakeNotify, tid, src});
        } else {
            lock.waitQueue.emplace_back(tid, src);
            out.outcome = HomeOutcome::Queued;
        }
        break;

      case MsgKind::FutexWake:
        // Queue-spinlock semantics: the woken head waiter *secures*
        // the lock (Section 2.2). The wakeup request only succeeds
        // when the lock is still free by the time it reaches the
        // home node — a spinning thread whose LockTry arrived first
        // has stolen it, and the sleeper stays parked until the
        // next unlock (under OCOR this race is deliberately biased
        // by the Wakeup-Request-Last rule).
        if (!lock.held && !lock.waitQueue.empty()) {
            auto [wtid, wnode] = lock.waitQueue.front();
            lock.waitQueue.pop_front();
            lock.held = true;
            lock.holder = wtid;
            out.outcome = HomeOutcome::Woken;
            out.grantDecision = true;
            out.sends.push_back({MsgKind::WakeNotify, wtid, wnode});
        } else {
            out.outcome = HomeOutcome::WakeNoop;
        }
        break;

      default:
        ocor_panic("homeStep: %s is not home-bound", msgKindName(kind));
    }
    return out;
}

} // namespace proto
} // namespace ocor
