/**
 * @file
 * Two-stage pipelined virtual-channel router with priority-based VC
 * and switch allocation (Figure 7).
 *
 * Stage 1 performs Route Computation, VC Allocation and Switch
 * Allocation in parallel; stage 2 is Switch Traversal. The pipeline
 * is modeled by flit eligibility times: a flit that arrives at cycle
 * t may be VC-allocated from t+1 and may traverse the switch from
 * t+routerStages; traversal puts it on the output link (one more
 * linkLatency cycle to the neighbor).
 *
 * Under OCOR, both VA and SA arbitrate by the Table-1 rank of the
 * candidate packet (see core/priority.hh); switch allocation is
 * two-staged exactly as Section 4.2 describes: a Local Priority
 * Arbiter per input port selects the best local VC, then a global
 * priority arbiter per output port selects among the port winners.
 * With OCOR disabled, every rank is zero and all arbitration
 * degrades to the baseline round-robin policy. Masks and counts of
 * the requesters ranking nonzero let an arbitration in which nobody
 * ranks take that round-robin pick directly (Arbiter::pickEqual).
 *
 * State is flat (see DESIGN.md §6, "Router hot path"): one contiguous
 * metadata array over all input VCs, one contiguous flit-slot array
 * holding every VC's ring, and bitmasks kept current at every state
 * change, so VA and SA read their requesters off the masks instead of
 * rescanning VCs. Route, rank and lock bit are read from the packet
 * once, when its head reaches the front of a VC.
 */

#ifndef OCOR_NOC_ROUTER_HH
#define OCOR_NOC_ROUTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/ocor_config.hh"
#include "noc/arbiter.hh"
#include "noc/link.hh"
#include "noc/params.hh"
#include "noc/ring.hh"
#include "noc/routing.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;

/** Per-router observability counters. */
struct RouterStats
{
    std::uint64_t flitsRouted = 0;
    std::uint64_t lockFlitsRouted = 0;
    std::uint64_t saGrants = 0;
    std::uint64_t saConflictLosses = 0;
    std::uint64_t vaGrants = 0;
};

/** One mesh router. */
class Router
{
  public:
    Router(NodeId id, const MeshShape &mesh, const NocParams &params,
           const OcorConfig &ocor);

    /**
     * Wire one port. @p in_link delivers flits *to* this router (we
     * send credits back on it); @p out_link carries flits we send
     * (credits for us arrive on it). Either may be null at mesh
     * edges. The router becomes the flit receiver of @p in_link and
     * the credit receiver of @p out_link (Link::bindFlitReceiver,
     * bindCreditReceiver). Every link must share one latency: the due
     * queue relies on it to stay in arrival order.
     */
    void attach(unsigned port, Link *in_link, Link *out_link);

    /**
     * Advance one cycle: due credits, VA, SA+ST. Flits are already in
     * their VCs (landFlit); each allocation stage walks only the set
     * bits of its request masks, so an idle stage costs a mask test;
     * both simulation loops call this.
     */
    void tick(Cycle now);

    /**
     * A bound input link hands over @p flit at send time: buffer it in
     * input @p port, VC flit.vc, stamped with its @p arrival cycle.
     * The pipeline gates keep it inert until it has arrived, whichever
     * of sender and receiver ticks first: VA waits for arrival < now,
     * SA for arrival + routerStages <= now.
     */
    void landFlit(unsigned port, Flit &&flit, Cycle arrival);

    /** A bound output link hands over a credit for output @p port,
     * VC @p vc, arriving at @p at; tick() applies it then. */
    void
    landCredit(unsigned port, unsigned vc, Cycle at)
    {
        if (vc >= nvc_)
            badCreditVc(vc);
        if (due_.full())
            dueOverflow();
        if (due_.empty())
            dueAt_ = at;
        due_.push({at, static_cast<std::uint8_t>(port),
                   static_cast<std::uint8_t>(vc)});
    }

    NodeId id() const { return id_; }
    const RouterStats &stats() const { return stats_; }

    /** Attach the event tracer (null = tracing off, zero overhead). */
    void setTracer(Tracer *t) { trace_ = t; }

    /** Attach the invariant checker (null = checking off). */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /**
     * Test hook: invert every Table-1 rank fed to the VA/SA
     * arbiters, so the *lowest*-priority competitor wins. Exists
     * solely so seeded-violation tests can prove the arbitration
     * checker fires; set it before any flit arrives (ranks are
     * cached per head). Never set outside tests.
     */
    void testInvertArbitration(bool on) { testInvertArb_ = on; }

    /**
     * Test hook: swap the two oldest buffered flits of one input VC,
     * violating FIFO order. Seeded-violation tests only.
     */
    void testSwapVcFlits(unsigned port, unsigned v);

    /** Flits in the input buffers at the end of cycle @p now (a test
     * oracle): landed flits whose arrival is later are still on the
     * wire. */
    unsigned occupancy(Cycle now) const;

    /** O(1) test for held flits or pending credits (wake scan
     * plumbing and drain checks): a router holding neither has
     * nothing to do, so ticking it is a no-op. */
    bool busy() const { return buffered_ > 0 || !due_.empty(); }

  private:
    /** SystemConfig::validate's numVcs bound. */
    static constexpr unsigned maxVcs = 16;
    /** VcMeta::outVc of a VC holding no downstream VC. */
    static constexpr std::uint8_t noVc = 0xff;

    /** Metadata of one input VC; the flits live in slots_. */
    struct VcMeta
    {
        Cycle frontArrival = 0;  ///< arrival cycle of the front flit
        std::int64_t rank = 0;   ///< Table-1 rank of the front packet
        unsigned head = 0;       ///< ring index of the front flit
        unsigned count = 0;      ///< buffered flits
        std::uint8_t outPort = 0; ///< route of the front packet
        std::uint8_t outVc = noVc; ///< allocated downstream VC
        bool lock = false;       ///< front packet is lock protocol
    };

    /** A buffered flit and the cycle it arrives. */
    struct Slot
    {
        Flit flit;
        Cycle arrival = 0;
    };

    /** A credit for output (port, vc) arriving at cycle at. */
    struct DueCredit
    {
        Cycle at = 0;
        std::uint8_t port = 0;
        std::uint8_t vc = 0;
    };

    [[noreturn]] void badCreditVc(unsigned vc) const;
    [[noreturn]] void dueOverflow() const;

    /** Apply every due credit (arrival <= @p now) in arrival order. */
    void drainCredits(Cycle now);
    void vcAllocation(Cycle now);
    void switchAllocation(Cycle now);

    /** Read route, rank and lock bit of the head now at the front of
     * input VC @p i and make it a VA candidate. */
    void headAtFront(unsigned i, const Flit &head);

    /** The front flit of input VC @p i changed: set its arrival and
     * recheck its pipeline delay before SA. */
    void frontChanged(unsigned i, Cycle arrival);

    /** VA grant of the lowest free VC of output @p op to input VC
     * @p i. */
    void grantVc(unsigned op, unsigned i, Cycle now);

    /** Switch traversal of the front flit of input port @p p, VC
     * @p v, to output @p op. */
    void traverse(unsigned op, unsigned p, unsigned v,
                  std::int64_t rank, Cycle now);

    Slot &
    frontSlot(unsigned i)
    {
        return slots_[i * depth_ + vcs_[i].head];
    }

    /** Front packet of input VC @p i (checker and trace paths). */
    const Packet *
    frontPacket(unsigned i)
    {
        return frontSlot(i).flit.pkt.get();
    }

    NodeId id_;
    MeshShape mesh_;
    NocParams params_;
    const OcorConfig &ocor_;
    unsigned nvc_;
    unsigned depth_;

    std::array<Link *, NumPorts> inLinks_{};
    std::array<Link *, NumPorts> outLinks_{};

    // --- per-input-port VC masks (bit v = VC v of that port) -------
    std::array<std::uint32_t, NumPorts> nonEmpty_{};
    /** Front flit is a head without a downstream VC whose one-cycle
     * RC stage has not been confirmed over yet. */
    std::array<std::uint32_t, NumPorts> freshHead_{};
    /** Front flit whose router pipeline delay has not been confirmed
     * over yet (SA skips these until it is). */
    std::array<std::uint32_t, NumPorts> inPipeline_{};
    /** Holds a downstream VC that has a free slot (credit > 0). */
    std::array<std::uint32_t, NumPorts> creditOk_{};
    /** VcMeta::rank is nonzero (set where headAtFront reads it). */
    std::array<std::uint32_t, NumPorts> ranked_{};

    // --- per-output-port state -------------------------------------
    /** Unallocated heads past RC, by the output port they route to;
     * VA input i = port * numVcs + vc. */
    std::array<ReqMask, NumPorts> vaReq_{};
    std::array<unsigned, NumPorts> vaCount_{};
    /** Requesters in vaReq_ whose rank is nonzero. */
    std::array<unsigned, NumPorts> vaRanked_{};
    /** Downstream VCs no packet holds. */
    std::array<std::uint32_t, NumPorts> freeOutVcs_{};

    /** VA arbiter per output port; SA: local per input, global per
     * output. */
    std::array<Arbiter, NumPorts> vaArb_;
    std::array<Arbiter, NumPorts> saLocalArb_;
    std::array<Arbiter, NumPorts> saGlobalArb_;

    /** Buffered flits across all input VCs, landed ones still on the
     * wire included (fast-path early out). */
    unsigned buffered_ = 0;

    /** Pending credits in arrival order, and the front's arrival
     * (neverCycle = none). Arrival order holds because every attached
     * link shares linkLatency_ and credits are sent at monotone now.
     * Sized by the credit-flow bound, NumPorts x numVcs x vcDepth. */
    Ring<DueCredit> due_;
    Cycle dueAt_ = neverCycle;
    /** Latency every attached link shares (neverCycle = none yet). */
    Cycle linkLatency_ = neverCycle;

    Tracer *trace_ = nullptr;
    CheckerRegistry *check_ = nullptr;
    bool testInvertArb_ = false;
    RouterStats stats_;

    // --- bulk state, after the small hot fields above ---------------
    /** Input VC i = port * numVcs + vc. */
    std::array<VcMeta, NumPorts * maxVcs> vcs_{};
    /** Output VC o = port * numVcs + vc: free downstream slots, and
     * the input VC holding it while allocated. */
    std::array<unsigned, NumPorts * maxVcs> credits_{};
    std::array<std::uint8_t, NumPorts * maxVcs> owner_{};
    /** VC i's ring occupies [i * vcDepth, (i + 1) * vcDepth). */
    std::vector<Slot> slots_;
};

} // namespace ocor

#endif // OCOR_NOC_ROUTER_HH
