/**
 * @file
 * System: instantiates and wires every component of the target CMP
 * (Figure 3) — mesh NoC, per-node core/L1/lock-client, per-node L2
 * bank + directory + lock manager, and the memory controllers.
 */

#ifndef OCOR_SIM_SYSTEM_HH
#define OCOR_SIM_SYSTEM_HH

#include <memory>
#include <string>
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

    /**
     * Advance the whole system one cycle. Components tick in a fixed
     * slot order (network, L1s, L2s, lock managers, memory
     * controllers, spinlocks, cores), each only when its nextWake()
     * marks cycle @p now as having work: ticking a component that is
     * not due would change nothing. Each slot's check runs when the
     * slot is reached, so work an earlier slot creates for a later
     * one in the same cycle (e.g. a grant delivered by the network
     * arming a qspinlock timer) is seen.
     */
    void tick(Cycle now);

    /**
     * Earliest cycle any component needs a tick, as seen at the end
     * of processed cycle @p now. May return a cycle <= now (a core's
     * wake can be overdue); the run loop clamps it to now + 1.
     */
    Cycle nextWake(Cycle now) const;

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
    void dispatch(NodeId node, const PacketPtr &pkt, Cycle now);

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

    /** Next cycle the network needs a tick. Recomputed at the end of
     * every tick() (after all injections of that cycle have been
     * queued); the network slot runs first within a cycle, so
     * nothing can move its due cycle earlier in between. */
    Cycle netWake_ = 0;
};

} // namespace ocor

#endif // OCOR_SIM_SYSTEM_HH
