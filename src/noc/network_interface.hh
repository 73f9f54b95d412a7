/**
 * @file
 * Network interface (NI): packetization, priority stamping, VC-based
 * injection, and reassembly/ejection.
 *
 * Section 4.1/4.2: the CPU writes the thread's RTR and PROG values to
 * core-local registers; the NI reads them when packetizing a locking
 * request and integrates the priority check bit, priority bits and
 * progress bits into the packet header. This class performs that
 * stamping (via core/priority.hh) for lock-protocol packets handed to
 * inject().
 *
 * Injection also honors packet rank: a locking request never waits
 * behind a queue of lower-priority data packets at its own NI under
 * OCOR.
 */

#ifndef OCOR_NOC_NETWORK_INTERFACE_HH
#define OCOR_NOC_NETWORK_INTERFACE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/ocor_config.hh"
#include "noc/arbiter.hh"
#include "noc/link.hh"
#include "noc/params.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;

/** NI observability counters. */
struct NiStats
{
    std::uint64_t packetsInjected = 0;
    std::uint64_t flitsInjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t lockPacketsInjected = 0;
    std::uint64_t injectQueuePeak = 0;
};

/** Per-node network interface. */
class NetworkInterface
{
  public:
    using DeliverFn = std::function<void(const PacketPtr &, Cycle)>;

    NetworkInterface(NodeId id, const NocParams &params,
                     const OcorConfig &ocor);

    /** Wire the NI to its router (to_router carries our flits). */
    void attach(Link *to_router, Link *from_router);

    /** Node-side sink for ejected packets. */
    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /**
     * Queue a packet for injection during cycle @p now; the caller
     * has already stamped priority fields (see stampAndInject for
     * the common path). Same-node packets take a 1-cycle loopback.
     */
    void inject(const PacketPtr &pkt, Cycle now);

    /**
     * Advance one cycle: credit intake, ejection, VC assignment, flit
     * send. Runs only when some stage provably has work at @p now — a
     * credit or flit due on the router links, a loopback or
     * injection-queue entry whose ready cycle has arrived (both FIFOs
     * are monotone, so front checks are exact), or an active output
     * VC with credit to send. When none hold, the stages would mutate
     * nothing (no arbiter pick, no stats, no callbacks), so the cycle
     * is skipped.
     */
    void tick(Cycle now);

    /**
     * Earliest future cycle tick() could do any work, seen from
     * cycle @p now (neverCycle = none pending). Loopback and inject
     * queues are FIFO by construction (entries are stamped now+1 at
     * push, and now is monotone), so their fronts are minima. Active
     * output VCs, pending reassembly and anything on the two links
     * (credits and flits on their way in) answer conservatively
     * (now + 1): ticking early is a no-op, missing a due cycle is
     * not.
     */
    Cycle
    nextWake(Cycle now) const
    {
        if ((toRouter_ && !toRouter_->idle()) ||
            (fromRouter_ && !fromRouter_->idle()))
            return now + 1;
        Cycle w = neverCycle;
        if (!loopback_.empty())
            w = std::min(w, loopback_.front().first);
        if (!injectQueue_.empty())
            w = std::min(w, injectQueue_.front().ready);
        if (activeVcs_ != 0 || reassembling_ != 0)
            return std::min(w, now + 1);
        return w;
    }

    /** True when nothing is queued or in flight inside this NI. */
    bool idle() const;

    NodeId id() const { return id_; }
    const NiStats &stats() const { return stats_; }

    /** Attach the event tracer (null = tracing off, zero overhead). */
    void setTracer(Tracer *t) { trace_ = t; }

    /** Attach the invariant checker (null = checking off). */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /** Packets waiting for a VC (tests and backpressure checks). */
    std::size_t queueDepth() const { return injectQueue_.size(); }

  private:
    void ejectIncoming(Cycle now);
    void assignVcs(Cycle now);
    void sendOneFlit(Cycle now);
    void eject(const PacketPtr &pkt, Cycle now);

    NodeId id_;
    NocParams params_;
    const OcorConfig &ocor_;

    Link *toRouter_ = nullptr;
    Link *fromRouter_ = nullptr;
    DeliverFn deliver_;

    struct QueuedPacket
    {
        PacketPtr pkt;
        Cycle ready = 0; ///< earliest cycle the head may leave
        /** Table-1 rank, read from the header on the first
         * VC-assignment scan that sees the packet ready (-1 = not yet:
         * inject() must not decode a header the one-hot checker is
         * about to reject). */
        std::int64_t rank = -1;
    };
    std::deque<QueuedPacket> injectQueue_;

    struct ActiveVc
    {
        PacketPtr pkt;       ///< null when the VC is free
        std::int64_t rank = 0;
        unsigned nextFlit = 0;
        unsigned credits = 0;
    };
    std::vector<ActiveVc> outVcs_;
    /** Bit v: VC v holds a packet / has a credit left / holds a
     * packet whose rank is nonzero. */
    std::uint32_t activeVcs_ = 0;
    std::uint32_t creditedVcs_ = 0;
    std::uint32_t rankedVcs_ = 0;
    Arbiter sendArb_;

    /** Reassembly of incoming packets, one slot per VC (null = no
     * packet in progress on that VC). */
    std::vector<PacketPtr> reassembly_;
    unsigned reassembling_ = 0; ///< slots with a packet in progress

    /** Same-node loopback (src == dst), 1-cycle latency. */
    std::deque<std::pair<Cycle, PacketPtr>> loopback_;

    Tracer *trace_ = nullptr;
    CheckerRegistry *check_ = nullptr;
    NiStats stats_;
};

} // namespace ocor

#endif // OCOR_NOC_NETWORK_INTERFACE_HH
