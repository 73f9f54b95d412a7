/**
 * @file
 * Abstract transition system of the lock/wakeup protocol
 * (DESIGN.md §15).
 *
 * The model lifts QSpinlock + LockManager into a small world state —
 * N abstract clients, one lock home, and an unordered set of
 * in-flight messages — whose transitions are driven by *exactly the
 * same* pure step functions the simulator runs (proto::clientStep /
 * proto::homeStep). Nothing protocol-relevant is re-implemented
 * here: the model cannot drift from the implementation, because it
 * IS the implementation minus time.
 *
 * Time abstraction. The two time-dependent predicates of the client
 * (timer due, spin budget expired) become nondeterministic inputs:
 * a timer may fire whenever armed, and budget expiry is enumerated
 * both ways, bounded by an explicit per-attempt retry budget that
 * strictly decreases — so every real timing is covered and the state
 * space stays finite. Message delivery is likewise nondeterministic:
 * any in-flight message may be delivered next (with an optional
 * strict-arbitration mode restricting home-bound delivery to the
 * highest Table-1 rank, modelling an ideal OCOR NoC).
 *
 * Seeded bugs (BugKind) inject one protocol defect each so the
 * checker's counterexample machinery can be validated end-to-end:
 * the resulting schedule replays against the real components and
 * must trigger the matching runtime checker (src/verify/replay.hh).
 */

#ifndef OCOR_VERIFY_MODEL_HH
#define OCOR_VERIFY_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/ocor_config.hh"
#include "core/priority.hh"
#include "os/protocol_step.hh"

namespace ocor
{
namespace verify
{

/** One deliberately seeded protocol defect (None = verify). */
enum class BugKind : std::uint8_t
{
    None,      ///< no seeded bug: all properties must hold
    ForceHold, ///< client 0 believes it holds the lock (testForceHold)
    ArbInvert, ///< arbitration grants the *lowest* Table-1 rank
    LostWake,  ///< a WakeNotify can be dropped in flight
    RtrRaise,  ///< retries stamp a *rising* RTR
    NumBugs
};

const char *bugName(BugKind b);
BugKind bugFromName(const std::string &name);

/** One bounded exploration configuration. */
struct VerifyConfig
{
    unsigned threads = 2;      ///< abstract clients (2..4 practical)
    unsigned acquisitions = 1; ///< lock acquisitions per client
    unsigned spinBudget = 1;   ///< remote retries before sleep forced
    bool strictArb = false;    ///< ideal-OCOR home-bound delivery
    BugKind bug = BugKind::None;

    /** Max grants to others while one client waits (0 = derive the
     * trivially safe bound (threads-1)*acquisitions). */
    unsigned overtakeBound = 0;

    /** Priority encoding shared with the simulator (OCOR on, so
     * Table-1 ranks actually differ between competing messages). */
    OcorConfig ocor = defaultOcor();

    static OcorConfig
    defaultOcor()
    {
        OcorConfig c;
        c.enabled = true;
        return c;
    }

    unsigned effectiveOvertakeBound() const
    {
        return overtakeBound ? overtakeBound
                             : (threads - 1) * acquisitions;
    }

    std::string describe() const;
};

/** An in-flight protocol message (node-less: thread i lives on
 * abstract node i; the single modelled lock lives at the home). */
struct Msg
{
    proto::MsgKind kind = proto::MsgKind::LockTry;

    /** Client-bound: the target client. Home-bound: the sender. */
    ThreadId tid = invalidThread;

    unsigned rtr = 1;       ///< stamped RTR (LockTry; 1 otherwise)
    std::uint64_t prog = 0; ///< stamped PROG of the issuing thread

    /**
     * Send order on the sender's thread->home channel (0 for
     * client-bound messages, which deliver in any order). The real
     * NoC routes same-flow packets over one deterministic path, so
     * a client's LockRelease can never be overtaken by its next
     * LockTry; without this the model reports phantom re-grant
     * mutex violations the hardware cannot exhibit. Excluded from
     * operator== — at most one instance of a (kind, tid) pair is
     * ever in flight per channel, so identity never needs it.
     */
    unsigned seq = 0;

    bool operator==(const Msg &o) const
    {
        return kind == o.kind && tid == o.tid && rtr == o.rtr &&
            prog == o.prog;
    }
};

/** True for kinds processed by the home (rest go to a client). */
bool homeBound(proto::MsgKind k);

/** Table-1 rank of an in-flight home-bound message. */
std::uint64_t msgRank(const OcorConfig &ocor, const Msg &m);

/** Abstract per-client state: the pure protocol core plus the
 * bounded counters replacing real time. */
struct ThreadModel
{
    proto::ClientState cs;

    unsigned acqsLeft = 0;   ///< acquisitions not yet completed
    unsigned budgetLeft = 0; ///< remote retries left this attempt
    unsigned lastRtr = 0;    ///< last stamped RTR (0 = none yet)
    std::uint64_t prog = 0;  ///< completed critical sections
    bool wakePending = false; ///< deferred FUTEX_WAKE to fire
    unsigned overtaken = 0;  ///< grants to others since wait start
};

/** The complete abstract world state. */
struct WorldState
{
    std::vector<ThreadModel> threads;
    proto::HomeLockState home;
    bool wakeRetryPending = false; ///< home wakeRetryDelay token
    std::vector<Msg> msgs;         ///< in-flight, unordered

    /** Canonical byte encoding (msgs sorted) for visited-set keys. */
    std::string encode() const;
};

/** The kinds of schedule steps (transition labels). */
enum class StepKind : std::uint8_t
{
    Acquire,      ///< thread begins an acquisition
    Deliver,      ///< an in-flight message is delivered
    Drop,         ///< an in-flight message is lost (LostWake bug)
    Timer,        ///< a client timer fires
    Release,      ///< the holder leaves its (zero-length) CS
    FireWake,     ///< the deferred FUTEX_WAKE goes out
    FireWakeRetry ///< the home's wake-retry safety net fires
};

const char *stepKindName(StepKind k);

/** One transition, fully labelled for counterexample replay. */
struct ScheduleStep
{
    StepKind kind = StepKind::Acquire;
    ThreadId tid = invalidThread;  ///< acting / target thread
    proto::MsgKind msg = proto::MsgKind::NumKinds; ///< Deliver/Drop
    bool budgetExhausted = false;  ///< Timer / Deliver(LockFail)
    unsigned rtr = 0;              ///< RTR stamped by a SendTry
    std::uint64_t prog = 0;        ///< PROG of the acting thread

    /** Competing home-bound messages at a strict-arbitration
     * delivery (winner first excluded); empty otherwise. */
    std::vector<Msg> rivals;

    std::string describe() const;
};

/** Violated property classes the explorer can report. */
enum class Property : std::uint8_t
{
    None,
    Mutex,       ///< two clients hold the lock at once
    Deadlock,    ///< stuck state with work left, nobody sleeping
    LostWakeup,  ///< stuck state with a client parked forever
    RtrMonotone, ///< a retry stamped a higher RTR than its elder
    Arbitration, ///< a lower-rank message beat a higher-rank rival
    Overtaking   ///< a waiter was overtaken past the bound
};

const char *propertyName(Property p);
Property propertyFromName(const std::string &name);

/** Result of applying one step (violations found *during* the
 * transition, e.g. a non-monotonic RTR stamp). */
struct StepOutcome
{
    Property violated = Property::None;
    std::string detail;

    /** The clientStep action or homeStep outcome the step produced
     * (NumActions / NumOutcomes: it ran neither step function). */
    proto::ClientAction action = proto::ClientAction::NumActions;
    proto::HomeOutcome outcome = proto::HomeOutcome::NumOutcomes;
};

/** Build the initial world state (seeds ForceHold if configured). */
WorldState initialState(const VerifyConfig &cfg);

/** Enumerate every transition enabled in @p s. */
std::vector<ScheduleStep> enabledSteps(const VerifyConfig &cfg,
                                       const WorldState &s);

/**
 * Apply @p step to @p s in place. The step must come from
 * enabledSteps() on the same state (panics otherwise).
 */
StepOutcome applyStep(const VerifyConfig &cfg, WorldState &s,
                      ScheduleStep &step);

/**
 * Check the *state* properties of @p s: mutual exclusion, and (when
 * @p terminal, i.e. enabledSteps() is empty) deadlock / lost-wakeup.
 */
StepOutcome checkState(const VerifyConfig &cfg, const WorldState &s,
                       bool terminal);

/**
 * Visited-set key for @p s: the lexicographically smallest encode()
 * over every thread permutation the configuration allows (clean
 * configs are fully thread-symmetric; ForceHold pins thread 0).
 * Symmetry reduction shrinks the explored space by up to threads!
 * without losing violations — any behaviour of a pruned state is a
 * thread-renaming of a behaviour of its kept representative, and
 * every checked property is invariant under renaming.
 */
std::string canonicalKey(const VerifyConfig &cfg,
                         const WorldState &s);

} // namespace verify
} // namespace ocor

#endif // OCOR_VERIFY_MODEL_HH
