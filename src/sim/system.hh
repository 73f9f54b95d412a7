/**
 * @file
 * System: instantiates and wires every component of the target CMP
 * (Figure 3) — mesh NoC, per-node core/L1/lock-client, per-node L2
 * bank + directory + lock manager, and the memory controllers.
 */

#ifndef OCOR_SIM_SYSTEM_HH
#define OCOR_SIM_SYSTEM_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/checker_registry.hh"
#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "cpu/core.hh"
#include "mem/address_map.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_directory.hh"
#include "mem/mem_controller.hh"
#include "noc/network.hh"
#include "os/lock_manager.hh"
#include "os/pcb.hh"
#include "os/qspinlock.hh"
#include "sim/config.hh"
#include "workload/program.hh"

namespace ocor
{

class LockLedger;

/** One fully wired CMP instance. */
class System
{
  public:
    /**
     * Build the system. @p programs holds one program per thread
     * (threads map to nodes 0..numThreads-1); @p bg the background
     * traffic configuration applied to every core.
     */
    System(const SystemConfig &cfg, std::vector<Program> programs,
           const BgTrafficConfig &bg);

    /** Joins the strip workers, if any started. */
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Advance the whole system one cycle. Components tick in a fixed
     * slot order (routers; then NIs, L1s, L2s, lock managers, memory
     * controllers, spinlocks, cores), each only when its nextWake()
     * marks cycle @p now as having work: ticking a component that is
     * not due would change nothing. Each slot's check runs when the
     * slot is reached, so work an earlier slot creates for a later
     * one in the same cycle (e.g. a grant delivered by the network
     * arming a qspinlock timer) is seen.
     *
     * The cycle runs as two phases over mesh strips (bands of whole
     * rows; DESIGN.md §13, "Partitioned cycle"): every strip's
     * routers, a barrier, then every strip's nodes in the slot order
     * above. With more than one strip the strips run in parallel, on
     * the calling thread and one worker per further strip; after the
     * router phase a component talks only to its own node, so every
     * result is the one-strip result.
     */
    void tick(Cycle now);

    /**
     * Earliest cycle any component needs a tick, as seen at the end
     * of processed cycle @p now (each strip reports its own at the
     * end of its node phase). May return a cycle <= now (a core's
     * wake can be overdue); the run loop clamps it to now + 1.
     */
    Cycle nextWake(Cycle now) const;

    /**
     * Strips tick() runs on: the minimum of the mesh rows, nodes / 16
     * and ThreadPool::defaultConcurrency() over the size of the pool
     * the calling thread works for; 1 whenever a tracer, checker or
     * COH ledger is attached (they are shared by every node).
     */
    unsigned numStrips() const
    {
        return static_cast<unsigned>(strips_.size());
    }

    /**
     * Test hook: run on min(@p n, mesh rows) strips instead of the
     * derived count (0 = derived again); a tracer, checker or ledger
     * still forces one. Never set outside tests.
     */
    void testPinStrips(unsigned n);

    /** All threads ran to completion. */
    bool allFinished() const;

    /** Every queue, buffer and link is empty. */
    bool drained() const;

    // --- component access -------------------------------------------
    const SystemConfig &config() const { return cfg_; }
    Network &network() { return *network_; }

    /** Event tracer; null when cfg.trace is off. */
    Tracer *tracer() { return tracer_.get(); }

    /** Invariant-checker registry; null when cfg.check is off. */
    CheckerRegistry *checker() { return checks_.get(); }

    /** Attach the COH attribution ledger to every lock client and
     * home (null = detach; off by default, zero cost). */
    void setLedger(LockLedger *l);

    /**
     * Register every component's live counters under dotted names
     * ("<prefix>.router3.sa_grants", "<prefix>.l2<n>.evictions",
     * "<prefix>.lockmgr0.grants", ...). The registry stores pointers
     * into this System, so it must not outlive it.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "system");

    const AddressMap &addressMap() const { return amap_; }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    Core &core(ThreadId t) { return *cores_[t]; }
    Pcb &pcb(ThreadId t) { return *pcbs_[t]; }
    const Pcb &pcb(ThreadId t) const { return *pcbs_[t]; }
    QSpinlock &qspinlock(ThreadId t) { return *qspins_[t]; }
    L1Cache &l1(NodeId n) { return *l1s_[n]; }
    L2Directory &l2(NodeId n) { return *l2s_[n]; }
    LockManager &lockManager(NodeId n) { return *lockMgrs_[n]; }

    /** Oracle: is the lock word @p lock_word held right now? */
    bool lockHeld(Addr lock_word) const;

    /**
     * Oracle: is the holder of @p lock_word actually executing its
     * critical section (vs. still waking up / in transit)? This is
     * the Equation-1 boundary between predecessor-CS time and
     * competition overhead.
     */
    bool lockHolderInCs(Addr lock_word) const;

    /** Oracle: futex queue length of @p lock_word. */
    std::size_t lockQueueLength(Addr lock_word) const;

  private:
    /** A band of whole mesh rows (band `index` of
     * Network::partition) and the components on its nodes. Written by
     * the thread that ticks it, so each gets a cache line of its own. */
    struct alignas(64) Strip
    {
        unsigned index = 0;
        NodeId first = 0;          ///< nodes [first, last)
        NodeId last = 0;
        unsigned mcFirst = 0;      ///< mcs_ [mcFirst, mcLast)
        unsigned mcLast = 0;
        unsigned threadFirst = 0;  ///< threads [threadFirst, threadLast)
        unsigned threadLast = 0;
        /** Next cycle the strip's routers and NIs need a tick. The
         * router phase runs first within a cycle, so nothing can move
         * it earlier in between. */
        Cycle netWake = 0;
        /** Earliest cycle anything in the strip needs a tick. */
        Cycle wake = 0;
        /** Stamp of the last phase a thread claimed the strip for. */
        std::atomic<unsigned> claimed{0};
    };

    void dispatch(NodeId node, const PacketPtr &pkt, Cycle now);

    /** Strips the rule of numStrips() gives now. */
    unsigned stripCount() const;

    /** Split the mesh into @p n strips and partition the network
     * along them (stops any workers first). */
    void layoutStrips(unsigned n);

    void tickRouters(Strip &s, Cycle now);
    void tickNodes(Strip &s, Cycle now);

    /** Take part in the cycle of epoch @p epoch from strip @p home:
     * its router phase, the barrier, its node phase. A thread that
     * waits at the barrier runs router phases nobody has claimed. */
    void runCycle(unsigned home, unsigned epoch);

    /**
     * Run @p phase on strip @p s unless another thread has claimed it
     * for phase @p stamp (2e + 1: routers, 2e + 2: nodes of epoch e),
     * then count it in @p done. Any thread may run any strip, so a
     * late or descheduled thread's strip does not stall the cycle.
     */
    void claim(Strip &s, unsigned stamp,
               void (System::*phase)(Strip &, Cycle),
               std::atomic<unsigned> &done);
    void claimAny(unsigned stamp, void (System::*phase)(Strip &, Cycle),
                  std::atomic<unsigned> &done);

    /** Start one worker per strip after the first; false (and one
     * strip) when a thread cannot start. */
    bool startWorkers();
    void stopWorkers();
    void workerLoop(unsigned home, unsigned epoch,
                    const std::string &label);

    SystemConfig cfg_;
    AddressMap amap_;
    std::unique_ptr<Tracer> tracer_;       ///< null when tracing off
    std::unique_ptr<Network> network_;
    std::unique_ptr<CheckerRegistry> checks_; ///< null: checking off

    std::vector<std::unique_ptr<Pcb>> pcbs_;
    std::vector<std::unique_ptr<L1Cache>> l1s_;
    std::vector<std::unique_ptr<L2Directory>> l2s_;
    std::vector<std::unique_ptr<LockManager>> lockMgrs_;
    std::vector<std::unique_ptr<QSpinlock>> qspins_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** One per AddressMap::mcNodes() entry, in that (ascending
     * node) order. */
    std::vector<std::unique_ptr<MemController>> mcs_;

    /** First index in cores_ not yet finished: threads finish
     * monotonically, so allFinished() is O(1) amortized instead of
     * a full scan per cycle. */
    mutable unsigned firstUnfinished_ = 0;

    bool ledgerAttached_ = false;
    unsigned pinnedStrips_ = 0; ///< testPinStrips (0 = derived)
    std::vector<Strip> strips_;

    // --- strip workers (started on the first multi-strip tick) -----
    /** Bumped by tick() to start a cycle (or, with stop_, to end the
     * workers). */
    std::atomic<unsigned> epoch_{0};
    std::atomic<Cycle> cycle_{0};
    std::atomic<bool> stop_{false};
    /** Strips past their router phase / node phase this cycle. */
    std::atomic<unsigned> routed_{0};
    std::atomic<unsigned> settled_{0};
    /** First exception a strip's phase threw this cycle; tick()
     * rethrows it once every strip is done, as the serial tick would
     * have let it escape. */
    std::mutex failureMu_;
    std::exception_ptr failure_;
    std::vector<std::thread> workers_;
};

} // namespace ocor

#endif // OCOR_SIM_SYSTEM_HH
