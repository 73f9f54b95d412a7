/**
 * @file
 * Lock-word home: atomic try-lock serialization point and futex wait
 * queue.
 *
 * Every lock word is serialized at its home L2 bank (Figure 4): the
 * arrival order of LockTry packets decides who wins — which is the
 * very ordering OCOR's priority-based NoC scheduling manipulates.
 * The manager also hosts the per-lock futex queue that sys_futex
 * (FUTEX_WAIT / FUTEX_WAKE) operates on.
 */

#ifndef OCOR_OS_LOCK_MANAGER_HH
#define OCOR_OS_LOCK_MANAGER_HH

#include <cstdint>
#include <deque>
#include <vector>
#include <map>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "os/params.hh"
#include "os/protocol_step.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;
class LockLedger;

/** Lock-manager observability counters. */
struct LockMgrStats
{
    std::uint64_t tries = 0;
    std::uint64_t grants = 0;
    std::uint64_t fails = 0;
    std::uint64_t releases = 0;
    std::uint64_t futexWaits = 0;
    std::uint64_t immediateWakes = 0; ///< lock free at FUTEX_WAIT time
    std::uint64_t wakes = 0;
    std::uint64_t notifies = 0; ///< release invalidations sent
    std::uint64_t strayReleases = 0; ///< release of a free/foreign lock

    /** Release -> next grant gap at this home (lock-handover
     * latency, the quantity OCOR's priority rules compress). */
    SampleStat handoverLatency;
    Histogram handoverLatencyHist{4.0, 256};
};

/** Home-side state of the locks whose words live on this node. */
class LockManager
{
  public:
    LockManager(NodeId node, const OsParams &params, SendFn send);

    /** Lock-protocol traffic addressed to this home node. */
    void handle(const PacketPtr &pkt, Cycle now);

    /** Advance: process messages past the home access latency. */
    void tick(Cycle now);

    bool idle() const { return delayed_.empty() && retries_.empty(); }

    /** Earliest cycle tick() would do any work (neverCycle = none).
     * Both queues are constant-latency FIFOs (homeLatency and
     * wakeRetryDelay), so their fronts are the minima. */
    Cycle nextWake() const
    {
        Cycle w = neverCycle;
        if (!delayed_.empty())
            w = delayed_.front().first;
        if (!retries_.empty() && retries_.front().first < w)
            w = retries_.front().first;
        return w;
    }

    const LockMgrStats &stats() const { return stats_; }

    /** Attach the event tracer (null = tracing off, zero overhead). */
    void setTracer(Tracer *t) { trace_ = t; }

    /** Attach the invariant checker (null = checking off). */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /** Attach the COH attribution ledger (null = off, zero cost). */
    void setLedger(LockLedger *l) { ledger_ = l; }

    // --- oracle accessors (simulation-level accounting only) --------
    bool heldNow(Addr lock_word) const;
    ThreadId holderOf(Addr lock_word) const;
    std::size_t queueLength(Addr lock_word) const;
    std::size_t pollerCount(Addr lock_word) const;

  private:
    /**
     * Home-side state of one lock word: the pure protocol core
     * shared with the model checker (proto::homeStep operates on
     * it) plus the timing bookkeeping only the simulator needs.
     */
    struct LockState
    {
        proto::HomeLockState core;

        /** Cycle of the latest unconsumed release; the next grant
         * samples (grant - release) as the handover latency. */
        Cycle lastRelease = neverCycle;
    };

    void process(const PacketPtr &pkt, Cycle now);

    /** Handover bookkeeping at every grant decision. */
    void noteGrant(LockState &lock, Addr addr, ThreadId winner,
                   Cycle now);

    NodeId node_;
    OsParams params_;
    SendFn send_;

    std::map<Addr, LockState> locks_;
    std::deque<std::pair<Cycle, PacketPtr>> delayed_;
    std::deque<std::pair<Cycle, PacketPtr>> retries_;

    Tracer *trace_ = nullptr;
    CheckerRegistry *check_ = nullptr;
    LockLedger *ledger_ = nullptr;
    LockMgrStats stats_;
};

} // namespace ocor

#endif // OCOR_OS_LOCK_MANAGER_HH
