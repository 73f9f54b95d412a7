/**
 * @file
 * The mesh network: routers, NIs and links wired per Section 3.1.
 */

#ifndef OCOR_NOC_NETWORK_HH
#define OCOR_NOC_NETWORK_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/ocor_config.hh"
#include "noc/link.hh"
#include "noc/network_interface.hh"
#include "noc/params.hh"
#include "noc/router.hh"
#include "noc/routing.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;

/**
 * Delivery statistics: the network's, or one band of nodes'. Each band
 * counts its own nodes' deliveries (one thread writes a band, so each
 * gets a cache line of its own); Network::stats() merges them in node
 * order. Latencies are whole cycles, so every sum is exact and the
 * merge equals one network-wide count.
 */
struct alignas(64) NetworkStats
{
    std::uint64_t packetsDelivered = 0;
    std::uint64_t lockPacketsDelivered = 0;
    SampleStat packetLatency;      ///< inject -> eject, all packets
    SampleStat lockPacketLatency;  ///< lock-protocol packets only
    SampleStat dataPacketLatency;  ///< everything else

    /** Latency distributions feeding p50/p95/p99 reporting. Bucket
     * width 2 cycles x 256 buckets covers [0, 512); longer transits
     * land in the explicit overflow bucket. */
    Histogram packetLatencyHist{2.0, 256};
    Histogram lockPacketLatencyHist{2.0, 256};

    void merge(const NetworkStats &o);
};

/** A width x height mesh of 2-stage VC routers with one NI per node. */
class Network
{
  public:
    Network(const MeshShape &mesh, const NocParams &params,
            const OcorConfig &ocor);

    /** Node-side packet sink; wraps the NI deliver hook. */
    void setNodeSink(NodeId node, NetworkInterface::DeliverFn fn);

    /** Stamp-and-send convenience used by all node logic. */
    void send(const PacketPtr &pkt, Cycle now);

    /**
     * Advance one cycle: every router, then every NI. Both gate
     * themselves (Router::tick on its due queue and request masks,
     * NetworkInterface::tick on its link fronts, queues and VC
     * masks), so fully idle nodes cost a handful of compares.
     */
    void tick(Cycle now);

    /** The routers of nodes [@p first, @p last), in node order: the
     * router phase of one mesh strip (System::tick). */
    void tickRouters(NodeId first, NodeId last, Cycle now);

    /** The NIs of nodes [@p first, @p last), in node order. */
    void tickNis(NodeId first, NodeId last, Cycle now);

    /**
     * Earliest future cycle tick() could do any work, seen from
     * cycle @p now (neverCycle = fully drained). While any router
     * holds a flit or a pending credit, or any link carries a
     * flit/credit, the answer is conservatively now + 1 (pipeline
     * stages advance every cycle); otherwise only NI-local queues can
     * create work, and their per-NI minima apply. Never returns a
     * cycle <= now.
     */
    Cycle nextWake(Cycle now) const;

    /** nextWake() over the routers and NIs of nodes [@p first,
     * @p last) only. Router-to-router links hold nothing between
     * cycles (bound ends, landed pending slots), so a node range's
     * routers and NI links cover all it can be woken by. */
    Cycle nextWake(NodeId first, NodeId last, Cycle now) const;

    /** All buffers and links empty (drain check). */
    bool idle() const;

    /**
     * Inject-to-eject time of @p pkt through an otherwise empty mesh:
     * 1 + linkLatency + (hops + 1) x (routerStages + linkLatency) for
     * the head, plus numFlits - 1 cycles of body serialization (1 for
     * same-node loopback). The serialization term holds only while
     * the credit loop keeps up, i.e. vcDepth >= 2 x linkLatency +
     * routerStages; below that, body flits wait for credits.
     */
    Cycle uncontendedLatency(const Packet &pkt) const;

    NetworkInterface &ni(NodeId n) { return *nis_[n]; }
    Router &router(NodeId n) { return *routers_[n]; }
    const MeshShape &mesh() const { return mesh_; }
    const NocParams &params() const { return params_; }

    /** Delivery statistics over all nodes, merged in node order. */
    NetworkStats stats() const;

    /**
     * Split the nodes into bands that tick on different threads
     * (System's mesh strips): node n is in band @p bandOf[n], and
     * bands are contiguous node ranges in order. A router-to-router
     * link between two bands is deferred (Link::setDeferred), and
     * deliveries are counted per band (the counts so far move to band
     * 0). One band undoes the split.
     */
    void partition(std::vector<unsigned> bandOf);

    /** Land the flits and credits parked this cycle on the deferred
     * links into band @p band's routers. */
    void landPending(unsigned band);

    /** Sum of injected flits over all NIs (utilization metric). */
    std::uint64_t totalFlitsInjected() const;
    std::uint64_t totalPacketsInjected() const;
    std::uint64_t totalLockPacketsInjected() const;

    /** Hand every router and NI the event tracer (null = off). */
    void setTracer(Tracer *t);

    /** Hand every router, NI and link the invariant checker. */
    void setChecker(CheckerRegistry *c);

    /** Every link of the mesh, NI links included (tests check that
     * they drain). */
    unsigned numLinks() const
    {
        return static_cast<unsigned>(links_.size());
    }
    const Link &link(unsigned i) const { return *links_[i]; }

  private:
    /** A router-to-router link with the nodes of its sending and
     * receiving routers. */
    struct RouterLink
    {
        Link *link;
        NodeId from;
        NodeId to;
    };

    MeshShape mesh_;
    NocParams params_;
    const OcorConfig &ocor_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<RouterLink> routerLinks_;

    /** Each node's band, and per band: its delivery statistics and
     * the deferred links whose flits / credits land in it. */
    std::vector<unsigned> bandOf_;
    std::vector<NetworkStats> delivered_;
    std::vector<std::vector<Link *>> inFlits_;
    std::vector<std::vector<Link *>> inCredits_;
};

} // namespace ocor

#endif // OCOR_NOC_NETWORK_HH
