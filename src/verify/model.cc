#include "verify/model.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace ocor
{
namespace verify
{

const char *
bugName(BugKind b)
{
    switch (b) {
      case BugKind::None:      return "none";
      case BugKind::ForceHold: return "force-hold";
      case BugKind::ArbInvert: return "arb-invert";
      case BugKind::LostWake:  return "lost-wake";
      case BugKind::RtrRaise:  return "rtr-raise";
      default:                 return "?";
    }
}

BugKind
bugFromName(const std::string &name)
{
    for (unsigned b = 0;
         b < static_cast<unsigned>(BugKind::NumBugs); ++b) {
        BugKind bug = static_cast<BugKind>(b);
        if (name == bugName(bug))
            return bug;
    }
    return BugKind::NumBugs;
}

const char *
stepKindName(StepKind k)
{
    switch (k) {
      case StepKind::Acquire:       return "acquire";
      case StepKind::Deliver:       return "deliver";
      case StepKind::Drop:          return "drop";
      case StepKind::Timer:         return "timer";
      case StepKind::Release:       return "release";
      case StepKind::FireWake:      return "firewake";
      case StepKind::FireWakeRetry: return "wakeretry";
      default:                      return "?";
    }
}

const char *
propertyName(Property p)
{
    switch (p) {
      case Property::None:        return "none";
      case Property::Mutex:       return "mutex";
      case Property::Deadlock:    return "deadlock";
      case Property::LostWakeup:  return "lost-wakeup";
      case Property::RtrMonotone: return "rtr-monotone";
      case Property::Arbitration: return "arbitration";
      case Property::Overtaking:  return "overtaking";
      default:                    return "?";
    }
}

Property
propertyFromName(const std::string &name)
{
    static const Property all[] = {
        Property::Mutex,       Property::Deadlock,
        Property::LostWakeup,  Property::RtrMonotone,
        Property::Arbitration, Property::Overtaking,
    };
    for (Property p : all)
        if (name == propertyName(p))
            return p;
    return Property::None;
}

std::string
VerifyConfig::describe() const
{
    std::ostringstream os;
    os << "t" << threads << "-a" << acquisitions << "-b"
       << spinBudget << (strictArb ? "-strict" : "-free");
    if (bug != BugKind::None)
        os << "-" << bugName(bug);
    return os.str();
}

bool
homeBound(proto::MsgKind k)
{
    switch (k) {
      case proto::MsgKind::LockTry:
      case proto::MsgKind::LockRelease:
      case proto::MsgKind::FutexWait:
      case proto::MsgKind::FutexWake:
        return true;
      default:
        return false;
    }
}

std::uint64_t
msgRank(const OcorConfig &ocor, const Msg &m)
{
    PriorityClass cls = PriorityClass::Normal;
    switch (m.kind) {
      case proto::MsgKind::LockTry:
        cls = PriorityClass::LockTry;
        break;
      case proto::MsgKind::LockRelease:
        cls = PriorityClass::LockRelease;
        break;
      case proto::MsgKind::FutexWait:
      case proto::MsgKind::FutexWake:
      case proto::MsgKind::WakeNotify:
        cls = PriorityClass::Wakeup;
        break;
      default:
        break;
    }
    return priorityRank(ocor, makePriority(ocor, cls, m.rtr, m.prog));
}

std::string
ScheduleStep::describe() const
{
    std::ostringstream os;
    os << stepKindName(kind);
    if (tid != invalidThread)
        os << " t" << tid;
    if (kind == StepKind::Deliver || kind == StepKind::Drop)
        os << " " << proto::msgKindName(msg);
    if (budgetExhausted)
        os << " budget-out";
    if (rtr)
        os << " rtr=" << rtr;
    return os.str();
}

// --- canonical encoding ---------------------------------------------

namespace
{

void
put8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

bool
msgLess(const Msg &a, const Msg &b)
{
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (a.tid != b.tid)
        return a.tid < b.tid;
    if (a.rtr != b.rtr)
        return a.rtr < b.rtr;
    if (a.prog != b.prog)
        return a.prog < b.prog;
    return a.seq < b.seq;
}

} // namespace

std::string
WorldState::encode() const
{
    std::string out;
    out.reserve(16 + threads.size() * 10 + msgs.size() * 4);
    for (const ThreadModel &t : threads) {
        put8(out, static_cast<std::uint8_t>(
                      (t.cs.active ? 1 : 0) |
                      (t.cs.holding ? 2 : 0) |
                      (t.cs.tryInFlight ? 4 : 0) |
                      (t.cs.everSlept ? 8 : 0) |
                      (t.wakePending ? 16 : 0)));
        put8(out, static_cast<std::uint8_t>(t.cs.phase));
        put8(out, static_cast<std::uint8_t>(t.cs.timer));
        put8(out, static_cast<std::uint8_t>(t.acqsLeft));
        put8(out, static_cast<std::uint8_t>(t.budgetLeft));
        put8(out, static_cast<std::uint8_t>(t.lastRtr));
        put8(out, static_cast<std::uint8_t>(t.prog));
        put8(out, static_cast<std::uint8_t>(t.overtaken));
    }
    put8(out, home.held ? 1 : 0);
    put8(out, home.holder == invalidThread
                  ? 0xFF
                  : static_cast<std::uint8_t>(home.holder));
    // Wait-queue order is FIFO-significant: encode in order.
    put8(out, static_cast<std::uint8_t>(home.waitQueue.size()));
    for (const auto &[tid, node] : home.waitQueue)
        put8(out, static_cast<std::uint8_t>(tid));
    // Poller order only affects the emission order of invalidations,
    // which land in the unordered message set anyway: sort so
    // semantically equal states merge.
    {
        std::vector<ThreadId> ps;
        for (const auto &[tid, node] : home.pollers)
            ps.push_back(tid);
        std::sort(ps.begin(), ps.end());
        put8(out, static_cast<std::uint8_t>(ps.size()));
        for (ThreadId tid : ps)
            put8(out, static_cast<std::uint8_t>(tid));
    }
    put8(out, wakeRetryPending ? 1 : 0);
    {
        std::vector<Msg> ms = msgs;
        std::sort(ms.begin(), ms.end(), msgLess);
        put8(out, static_cast<std::uint8_t>(ms.size()));
        for (const Msg &m : ms) {
            put8(out, static_cast<std::uint8_t>(m.kind));
            put8(out, static_cast<std::uint8_t>(m.tid));
            put8(out, static_cast<std::uint8_t>(m.rtr));
            put8(out, static_cast<std::uint8_t>(m.prog));
            put8(out, static_cast<std::uint8_t>(m.seq));
        }
    }
    return out;
}

namespace
{

/** @p s with thread identities renamed through @p pi (the model's
 * abstract node i is thread i, so node fields rename too). */
WorldState
permuteThreads(const WorldState &s, const std::vector<ThreadId> &pi)
{
    WorldState r = s;
    for (std::size_t t = 0; t < s.threads.size(); ++t)
        r.threads[pi[t]] = s.threads[t];
    if (s.home.holder != invalidThread)
        r.home.holder = pi[s.home.holder];
    for (auto &[tid, node] : r.home.waitQueue) {
        tid = pi[tid];
        node = static_cast<NodeId>(tid);
    }
    for (auto &[tid, node] : r.home.pollers) {
        tid = pi[tid];
        node = static_cast<NodeId>(tid);
    }
    for (Msg &m : r.msgs)
        if (m.tid != invalidThread)
            m.tid = pi[m.tid];
    return r;
}

} // namespace

std::string
canonicalKey(const VerifyConfig &cfg, const WorldState &s)
{
    std::vector<ThreadId> pi(s.threads.size());
    for (std::size_t t = 0; t < pi.size(); ++t)
        pi[t] = static_cast<ThreadId>(t);

    std::string best = s.encode();
    while (std::next_permutation(pi.begin(), pi.end())) {
        // ForceHold seeds thread 0 asymmetrically: only renamings
        // that fix it preserve behaviour.
        if (cfg.bug == BugKind::ForceHold && pi[0] != 0)
            continue;
        std::string key = permuteThreads(s, pi).encode();
        if (key < best)
            best = std::move(key);
    }
    return best;
}

// --- initial state --------------------------------------------------

WorldState
initialState(const VerifyConfig &cfg)
{
    WorldState s;
    s.threads.resize(cfg.threads);
    for (ThreadModel &t : s.threads)
        t.acqsLeft = cfg.acquisitions;
    if (cfg.bug == BugKind::ForceHold) {
        // Client 0 believes it owns the lock the home never granted
        // (the QSpinlock::testForceHold hook): any legitimate grant
        // to another client now breaks mutual exclusion.
        s.threads[0].cs.holding = true;
        s.threads[0].acqsLeft = 0;
    }
    return s;
}

// --- transition enumeration -----------------------------------------

namespace
{

/** Distinct in-flight messages (the set may hold duplicates). */
std::vector<Msg>
distinctMsgs(const std::vector<Msg> &msgs)
{
    std::vector<Msg> out;
    for (const Msg &m : msgs)
        if (std::find(out.begin(), out.end(), m) == out.end())
            out.push_back(m);
    return out;
}

/**
 * True when @p m is the oldest in-flight home-bound message on its
 * sender's channel. The thread->home channel is FIFO (see Msg::seq):
 * only channel heads are deliverable and only they compete at the
 * home's arbitration point.
 */
bool
channelHead(const std::vector<Msg> &msgs, const Msg &m)
{
    for (const Msg &o : msgs)
        if (homeBound(o.kind) && o.tid == m.tid && o.seq < m.seq)
            return false;
    return true;
}

/** Push a home-bound message, stamping its channel position. */
void
pushHomeBound(WorldState &s, Msg m)
{
    unsigned maxSeq = 0;
    for (const Msg &o : s.msgs)
        if (homeBound(o.kind) && o.tid == m.tid)
            maxSeq = std::max(maxSeq, o.seq);
    m.seq = maxSeq + 1;
    s.msgs.push_back(m);
}

} // namespace

std::vector<ScheduleStep>
enabledSteps(const VerifyConfig &cfg, const WorldState &s)
{
    std::vector<ScheduleStep> steps;

    for (ThreadId t = 0; t < s.threads.size(); ++t) {
        const ThreadModel &tm = s.threads[t];
        if (!tm.cs.active && !tm.cs.holding && tm.acqsLeft > 0 &&
            tm.cs.phase == proto::ClientPhase::Idle) {
            ScheduleStep st;
            st.kind = StepKind::Acquire;
            st.tid = t;
            steps.push_back(st);
        }
        if (tm.cs.holding) {
            ScheduleStep st;
            st.kind = StepKind::Release;
            st.tid = t;
            steps.push_back(st);
        }
        if (tm.cs.timer != proto::ClientTimer::None) {
            if (tm.cs.timer == proto::ClientTimer::Retry) {
                // Real time decides whether the budget expired by
                // this fire: enumerate both outcomes (spending a
                // retry requires budget left, so the space is
                // bounded).
                if (tm.budgetLeft > 0) {
                    ScheduleStep st;
                    st.kind = StepKind::Timer;
                    st.tid = t;
                    st.budgetExhausted = false;
                    steps.push_back(st);
                }
                ScheduleStep st;
                st.kind = StepKind::Timer;
                st.tid = t;
                st.budgetExhausted = true;
                steps.push_back(st);
            } else {
                ScheduleStep st;
                st.kind = StepKind::Timer;
                st.tid = t;
                steps.push_back(st);
            }
        }
        if (tm.wakePending) {
            ScheduleStep st;
            st.kind = StepKind::FireWake;
            st.tid = t;
            steps.push_back(st);
        }
    }

    if (s.wakeRetryPending) {
        ScheduleStep st;
        st.kind = StepKind::FireWakeRetry;
        steps.push_back(st);
    }

    // Message deliveries. Home-bound delivery order is where the NoC
    // arbitration lives: free mode delivers any message next;
    // strict mode models an ideal OCOR NoC where the highest
    // Table-1 rank always wins the race to the home (ArbInvert
    // inverts that choice, seeding an arbitration violation).
    std::vector<Msg> distinct = distinctMsgs(s.msgs);
    std::vector<Msg> homeMsgs;
    for (const Msg &m : distinct)
        if (homeBound(m.kind) && channelHead(s.msgs, m))
            homeMsgs.push_back(m);

    bool ranksDiffer = false;
    std::uint64_t bestRank = 0, worstRank = 0;
    if (!homeMsgs.empty()) {
        bestRank = worstRank = msgRank(cfg.ocor, homeMsgs[0]);
        for (const Msg &m : homeMsgs) {
            std::uint64_t r = msgRank(cfg.ocor, m);
            bestRank = std::max(bestRank, r);
            worstRank = std::min(worstRank, r);
        }
        ranksDiffer = bestRank != worstRank;
    }

    for (const Msg &m : distinct) {
        if (homeBound(m.kind)) {
            if (!channelHead(s.msgs, m))
                continue; // FIFO: a later send waits for the head
            std::uint64_t r = msgRank(cfg.ocor, m);
            if (cfg.strictArb) {
                bool eligible = cfg.bug == BugKind::ArbInvert
                    ? (!ranksDiffer || r == worstRank)
                    : r == bestRank;
                if (!eligible)
                    continue;
            }
            ScheduleStep st;
            st.kind = StepKind::Deliver;
            st.tid = m.tid;
            st.msg = m.kind;
            st.rtr = m.rtr;
            st.prog = m.prog;
            if (cfg.strictArb) {
                for (const Msg &rival : homeMsgs)
                    if (!(rival == m))
                        st.rivals.push_back(rival);
            }
            steps.push_back(st);
            continue;
        }

        if (m.kind == proto::MsgKind::LockFail) {
            const ThreadModel &tm = s.threads[m.tid];
            // The fail's arrival time against the budget deadline is
            // a real-time race: enumerate both outcomes.
            if (tm.budgetLeft > 0) {
                ScheduleStep st;
                st.kind = StepKind::Deliver;
                st.tid = m.tid;
                st.msg = m.kind;
                st.rtr = m.rtr;
                st.prog = m.prog;
                st.budgetExhausted = false;
                steps.push_back(st);
            }
            ScheduleStep st;
            st.kind = StepKind::Deliver;
            st.tid = m.tid;
            st.msg = m.kind;
            st.rtr = m.rtr;
            st.prog = m.prog;
            st.budgetExhausted = true;
            steps.push_back(st);
            continue;
        }

        ScheduleStep st;
        st.kind = StepKind::Deliver;
        st.tid = m.tid;
        st.msg = m.kind;
        st.rtr = m.rtr;
        st.prog = m.prog;
        steps.push_back(st);

        if (m.kind == proto::MsgKind::WakeNotify &&
            cfg.bug == BugKind::LostWake) {
            ScheduleStep drop;
            drop.kind = StepKind::Drop;
            drop.tid = m.tid;
            drop.msg = m.kind;
            drop.rtr = m.rtr;
            drop.prog = m.prog;
            steps.push_back(drop);
        }
    }

    return steps;
}

// --- step application -----------------------------------------------

namespace
{

/** Remove one in-flight instance matching the step's message. */
void
removeMsg(WorldState &s, const ScheduleStep &step)
{
    Msg key;
    key.kind = step.msg;
    key.tid = step.tid;
    key.rtr = step.rtr;
    key.prog = step.prog;
    auto it = std::find(s.msgs.begin(), s.msgs.end(), key);
    if (it == s.msgs.end())
        ocor_panic("verify: step delivers a message not in flight "
                   "(%s)", step.describe().c_str());
    s.msgs.erase(it);
}

/** Stamp the RTR of an outgoing LockTry and push it in flight. */
void
sendTry(const VerifyConfig &cfg, WorldState &s, ThreadId t,
        bool firstTry, ScheduleStep &step, StepOutcome &out)
{
    ThreadModel &tm = s.threads[t];
    unsigned rtr = std::max(tm.budgetLeft, 1u);
    if (!firstTry && cfg.bug == BugKind::RtrRaise)
        rtr = tm.lastRtr + 2; // seeded defect: RTR rises per retry

    if (tm.lastRtr > 0 && rtr > tm.lastRtr &&
        out.violated == Property::None) {
        out.violated = Property::RtrMonotone;
        std::ostringstream os;
        os << "thread " << t << " stamped RTR " << rtr
           << " after RTR " << tm.lastRtr
           << " within one attempt";
        out.detail = os.str();
    }

    tm.lastRtr = rtr;
    // A Deliver step's rtr/prog identify the *delivered* message
    // (LockFreeNotify here); only originating steps record the
    // stamp of the try they emit.
    if (step.kind != StepKind::Deliver) {
        step.rtr = rtr;
        step.prog = tm.prog;
    }

    Msg m;
    m.kind = proto::MsgKind::LockTry;
    m.tid = t;
    m.rtr = rtr;
    m.prog = tm.prog;
    pushHomeBound(s, m);
}

/** Grant bookkeeping: overtaking counters for the losers. */
void
noteGrantTo(const VerifyConfig &cfg, WorldState &s, ThreadId winner,
            StepOutcome &out)
{
    for (ThreadId u = 0; u < s.threads.size(); ++u) {
        if (u == winner || !s.threads[u].cs.active)
            continue;
        ThreadModel &tm = s.threads[u];
        ++tm.overtaken;
        if (tm.overtaken > cfg.effectiveOvertakeBound() &&
            out.violated == Property::None) {
            out.violated = Property::Overtaking;
            std::ostringstream os;
            os << "thread " << u << " overtaken "
               << tm.overtaken << " times (bound "
               << cfg.effectiveOvertakeBound() << ")";
            out.detail = os.str();
        }
    }
}

/** Client event corresponding to a delivered client-bound kind. */
proto::ClientEvent
clientEventFor(proto::MsgKind k)
{
    switch (k) {
      case proto::MsgKind::LockGrant:
        return proto::ClientEvent::MsgLockGrant;
      case proto::MsgKind::LockFail:
        return proto::ClientEvent::MsgLockFail;
      case proto::MsgKind::LockFreeNotify:
        return proto::ClientEvent::MsgLockFreeNotify;
      case proto::MsgKind::WakeNotify:
        return proto::ClientEvent::MsgWakeNotify;
      default:
        ocor_panic("verify: %s is not client-bound",
                   proto::msgKindName(k));
    }
}

/** Map clientStep actions onto abstract world effects. */
void
applyClientResult(const VerifyConfig &cfg, WorldState &s, ThreadId t,
                  const proto::ClientResult &res, ScheduleStep &step,
                  StepOutcome &out)
{
    ThreadModel &tm = s.threads[t];
    out.action = res.action;
    switch (res.action) {
      case proto::ClientAction::SendTry:
        sendTry(cfg, s, t, step.kind == StepKind::Acquire, step, out);
        break;

      case proto::ClientAction::RegisterWait: {
        Msg m;
        m.kind = proto::MsgKind::FutexWait;
        m.tid = t;
        m.prog = tm.prog;
        pushHomeBound(s, m);
        break;
      }

      case proto::ClientAction::EnterCs:
        if (tm.acqsLeft > 0)
            --tm.acqsLeft;
        tm.overtaken = 0;
        break;

      case proto::ClientAction::SendRelease: {
        Msg m;
        m.kind = proto::MsgKind::LockRelease;
        m.tid = t;
        m.prog = tm.prog;
        pushHomeBound(s, m);
        ++tm.prog;
        tm.wakePending = true;
        break;
      }

      case proto::ClientAction::None:
      case proto::ClientAction::ArmRetryTimer:
      case proto::ClientAction::BeginSleepPrep:
      case proto::ClientAction::StartWaking:
      case proto::ClientAction::NumActions:
        break; // pure-state / bookkeeping-only effects
    }
}

} // namespace

StepOutcome
applyStep(const VerifyConfig &cfg, WorldState &s, ScheduleStep &step)
{
    StepOutcome out;

    switch (step.kind) {
      case StepKind::Acquire: {
        ThreadModel &tm = s.threads[step.tid];
        tm.budgetLeft = cfg.spinBudget;
        tm.lastRtr = 0;
        tm.overtaken = 0;
        proto::ClientResult res = proto::clientStep(
            tm.cs, proto::ClientEvent::Acquire, {});
        applyClientResult(cfg, s, step.tid, res, step, out);
        break;
      }

      case StepKind::Release: {
        ThreadModel &tm = s.threads[step.tid];
        step.prog = tm.prog;
        proto::ClientResult res = proto::clientStep(
            tm.cs, proto::ClientEvent::Release, {});
        applyClientResult(cfg, s, step.tid, res, step, out);
        break;
      }

      case StepKind::Timer: {
        ThreadModel &tm = s.threads[step.tid];
        if (!step.budgetExhausted &&
            tm.cs.timer == proto::ClientTimer::Retry) {
            // Spending a retry burns one unit of the bounded budget.
            if (tm.budgetLeft == 0)
                ocor_panic("verify: retry with no budget left");
            --tm.budgetLeft;
        }
        proto::ClientInputs in;
        in.budgetExhausted = step.budgetExhausted;
        proto::ClientResult res = proto::clientStep(
            tm.cs, proto::ClientEvent::TimerFire, in);
        applyClientResult(cfg, s, step.tid, res, step, out);
        break;
      }

      case StepKind::FireWake: {
        ThreadModel &tm = s.threads[step.tid];
        if (!tm.wakePending)
            ocor_panic("verify: firewake without pending wake");
        tm.wakePending = false;
        Msg m;
        m.kind = proto::MsgKind::FutexWake;
        m.tid = step.tid;
        m.prog = tm.prog;
        pushHomeBound(s, m);
        break;
      }

      case StepKind::FireWakeRetry: {
        if (!s.wakeRetryPending)
            ocor_panic("verify: wakeretry without pending token");
        s.wakeRetryPending = false;
        Msg m;
        m.kind = proto::MsgKind::FutexWake;
        m.tid = invalidThread; // issued by the home itself
        pushHomeBound(s, m);
        break;
      }

      case StepKind::Drop:
        removeMsg(s, step);
        break;

      case StepKind::Deliver: {
        removeMsg(s, step);
        if (homeBound(step.msg)) {
            // Strict arbitration conformance: the delivered message
            // must outrank every competing home-bound rival.
            for (const Msg &rival : step.rivals) {
                if (msgRank(cfg.ocor, rival) >
                        msgRank(cfg.ocor,
                                Msg{step.msg, step.tid, step.rtr,
                                    step.prog}) &&
                    out.violated == Property::None) {
                    out.violated = Property::Arbitration;
                    std::ostringstream os;
                    os << proto::msgKindName(step.msg) << " from t"
                       << step.tid << " (rtr " << step.rtr
                       << ") beat higher-rank "
                       << proto::msgKindName(rival.kind) << " from t"
                       << rival.tid << " (rtr " << rival.rtr << ")";
                    out.detail = os.str();
                }
            }

            proto::HomeResult res = proto::homeStep(
                s.home, step.msg, step.tid,
                static_cast<NodeId>(step.tid));
            out.outcome = res.outcome;

            switch (res.outcome) {
              case proto::HomeOutcome::Granted:
              case proto::HomeOutcome::ImmediateWake:
                noteGrantTo(cfg, s, step.tid, out);
                break;
              case proto::HomeOutcome::Woken:
                noteGrantTo(cfg, s, res.sends.front().thread, out);
                break;
              default:
                break;
            }
            if (res.scheduleWakeRetry)
                s.wakeRetryPending = true;

            for (const proto::HomeSend &snd : res.sends) {
                Msg m;
                m.kind = snd.kind;
                m.tid = snd.thread;
                if (snd.kind == proto::MsgKind::LockGrant ||
                    snd.kind == proto::MsgKind::LockFail ||
                    snd.kind == proto::MsgKind::WakeNotify) {
                    // Responses inherit the request's stamp (the
                    // real home copies pkt->priority).
                    m.rtr = step.rtr;
                    m.prog = step.prog;
                }
                s.msgs.push_back(m);
            }
        } else {
            ThreadModel &tm = s.threads[step.tid];
            proto::ClientInputs in;
            in.sameLock = true; // single modelled lock
            in.budgetExhausted = step.budgetExhausted;
            proto::ClientResult res = proto::clientStep(
                tm.cs, clientEventFor(step.msg), in);
            applyClientResult(cfg, s, step.tid, res, step, out);
        }
        break;
      }
    }

    return out;
}

StepOutcome
checkState(const VerifyConfig &cfg, const WorldState &s,
           bool terminal)
{
    (void)cfg;
    StepOutcome out;

    // Mutual exclusion: at most one client may hold / occupy the CS.
    std::vector<ThreadId> holders;
    for (ThreadId t = 0; t < s.threads.size(); ++t)
        if (s.threads[t].cs.holding)
            holders.push_back(t);
    if (holders.size() > 1) {
        out.violated = Property::Mutex;
        std::ostringstream os;
        os << "threads";
        for (ThreadId t : holders)
            os << " t" << t;
        os << " hold the lock simultaneously";
        out.detail = os.str();
        return out;
    }

    if (!terminal)
        return out;

    bool allDone = true;
    bool anySleeping = false;
    for (const ThreadModel &t : s.threads) {
        if (t.cs.active || t.cs.holding || t.acqsLeft > 0)
            allDone = false;
        if (t.cs.phase == proto::ClientPhase::Sleeping)
            anySleeping = true;
    }
    if (allDone)
        return out;

    out.violated =
        anySleeping ? Property::LostWakeup : Property::Deadlock;
    std::ostringstream os;
    os << "stuck state:";
    for (ThreadId t = 0; t < s.threads.size(); ++t) {
        const ThreadModel &tm = s.threads[t];
        if (tm.cs.active || tm.cs.holding || tm.acqsLeft > 0)
            os << " t" << t << "(phase "
               << static_cast<unsigned>(tm.cs.phase) << ", "
               << tm.acqsLeft << " acqs left)";
    }
    out.detail = os.str();
    return out;
}

} // namespace verify
} // namespace ocor
