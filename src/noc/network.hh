/**
 * @file
 * The mesh network: routers, NIs and links wired per Section 3.1.
 */

#ifndef OCOR_NOC_NETWORK_HH
#define OCOR_NOC_NETWORK_HH

#include <memory>
#include <queue>
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

/** Network-wide aggregate statistics. */
struct NetworkStats
{
    std::uint64_t packetsDelivered = 0;
    std::uint64_t lockPacketsDelivered = 0;
    SampleStat packetLatency;      ///< inject -> eject, all packets
    SampleStat lockPacketLatency;  ///< lock-protocol packets only
    SampleStat dataPacketLatency;  ///< everything else

    /** Packets delivered by the hybrid-fidelity analytic fast path
     * instead of per-flit mesh transport (0 under exact fidelity). */
    std::uint64_t fastpathPackets = 0;
    /** Latency distributions feeding p50/p95/p99 reporting. Bucket
     * width 2 cycles x 256 buckets covers [0, 512); longer transits
     * land in the explicit overflow bucket. */
    Histogram packetLatencyHist{2.0, 256};
    Histogram lockPacketLatencyHist{2.0, 256};

    // --- hybrid-window diagnostics (all zero in exact fidelity).
    //     windowCycles counts open->close spans (finalizeWindows
    //     folds in a still-open tail); the three close-cause
    //     counters sum to windowsClosed. --------------------------
    std::uint64_t windowsOpened = 0;
    std::uint64_t windowsClosed = 0;
    std::uint64_t windowCycles = 0;
    std::uint64_t windowCloseWaiter = 0; ///< a lock waiter appeared
    std::uint64_t windowCloseLock = 0;   ///< lock packet with 0 waiters
    std::uint64_t windowCloseLoad = 0;   ///< population over capacity
};

/**
 * Why Network::nextWake() wants the next cycle (profiling only):
 * the first matching clause of nextWake()'s scan, so the wake
 * profiler can say *what* keeps the network group hot.
 */
enum class NetWakeReason : std::uint8_t
{
    RouterBusy, ///< some router still buffers flits
    LinkBusy,   ///< some link carries a flit or credit
    Fastpath,   ///< pending analytic delivery due
    NiQueue,    ///< an NI-local queue has timed work
    Idle,       ///< nothing due (wake was external/stale)
    NumReasons
};

constexpr std::size_t kNumNetWakeReasons =
    static_cast<std::size_t>(NetWakeReason::NumReasons);

/** Stable reason name (stats keys). */
const char *netWakeReasonName(NetWakeReason r);

/** A width x height mesh of 2-stage VC routers with one NI per node. */
class Network
{
  public:
    /**
     * @p fault may be null (no fault modeling, zero overhead). When
     * given, every link is registered with a stable id (construction
     * order: per node, the east out/in pair then the south out/in
     * pair, then NI<->router pairs per node) and the NIs are wired
     * with CRC/retransmission support plus an out-of-band ack channel
     * back to the source NI.
     */
    Network(const MeshShape &mesh, const NocParams &params,
            const OcorConfig &ocor, FaultInjector *fault = nullptr);

    /** Node-side packet sink; wraps the NI deliver hook. */
    void setNodeSink(NodeId node, NetworkInterface::DeliverFn fn);

    /** Stamp-and-send convenience used by all node logic. */
    void send(const PacketPtr &pkt, Cycle now);

    void tick(Cycle now);

    /**
     * Event-core variant of tick(): same router-then-NI walk order.
     * Router::tick gates itself on its link due tests and request
     * masks; each NI is entered through its gated tickEvent. Fully
     * idle nodes cost a handful of compares. Bit-identical to tick()
     * by construction (every elided stage is a provable no-op).
     */
    void tickEvent(Cycle now);

    /**
     * Earliest future cycle tick() could do any work, seen from
     * cycle @p now (neverCycle = fully drained). While any router
     * buffers a flit or any link carries a flit/credit the answer is
     * conservatively now + 1 (pipeline stages advance every cycle);
     * otherwise only NI-local queues can create work, and their
     * per-NI minima apply. Never returns a cycle <= now.
     */
    Cycle nextWake(Cycle now) const;

    /** All buffers and links empty (drain check). */
    bool idle() const;

    /** First matching clause of nextWake()'s scan at cycle @p now
     * (wake-profiler attribution; same walk order as nextWake). */
    NetWakeReason wakeReason(Cycle now) const;

    /** Fold a still-open hybrid window's cycles into the stats at
     * end of run (no close cause is charged: the run ended, the
     * window did not close). Idempotent. */
    void finalizeWindows(Cycle now);

    /**
     * Arm the hybrid-fidelity fast path. @p waiters points at the
     * System's live count of threads waiting on any lock word; while
     * it reads zero, send() delivers non-lock-protocol packets with
     * the analytic latency model instead of injecting flits. The
     * moment a waiter appears, new sends fall back to exact per-flit
     * transport (in-flight analytic deliveries still complete on
     * their scheduled cycle). Null (the default) disables the fast
     * path entirely — the exact-fidelity configuration.
     */
    void setFastpath(const unsigned *waiters)
    {
        fastWaiters_ = waiters;
    }

    /**
     * Hybrid-fidelity latency estimate for @p pkt: NI entry/exit,
     * per-hop pipeline + link traversal, body-flit serialization and
     * a load-proportional contention term derived from the number of
     * concurrently in-flight fast-path packets. Deterministic given
     * the simulation state. Exposed for tests and calibration.
     */
    Cycle analyticLatency(const Packet &pkt) const;

    /** The load-independent part of analyticLatency(): NI entry/exit,
     * per-hop pipeline + link traversal and body-flit serialization
     * (1 for same-node loopback). Also the re-transit budget used
     * when pending analytic deliveries are reified into the mesh. */
    Cycle uncontendedLatency(const Packet &pkt) const;

    NetworkInterface &ni(NodeId n) { return *nis_[n]; }
    Router &router(NodeId n) { return *routers_[n]; }
    const MeshShape &mesh() const { return mesh_; }
    const NocParams &params() const { return params_; }
    const NetworkStats &stats() const { return stats_; }

    /** Sum of injected flits over all NIs (utilization metric). */
    std::uint64_t totalFlitsInjected() const;
    std::uint64_t totalPacketsInjected() const;
    std::uint64_t totalLockPacketsInjected() const;

    /** Hand every router and NI (and the window diagnostics) the
     * event tracer (null = off). */
    void setTracer(Tracer *t);

    /** Hand every router, NI and link the invariant checker. */
    void setChecker(CheckerRegistry *c);

    /** Link fan-out for interval telemetry. */
    unsigned numLinks() const
    {
        return static_cast<unsigned>(links_.size());
    }
    const Link &link(unsigned i) const { return *links_[i]; }

  private:
    void fastSend(const PacketPtr &pkt, Cycle now);
    void drainFastpath(Cycle now);

    MeshShape mesh_;
    NocParams params_;
    const OcorConfig &ocor_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    std::vector<std::unique_ptr<Link>> links_;

    /** In-flight analytic deliveries, ordered by (arrival, push
     * sequence) for deterministic same-cycle delivery order. */
    struct FastEntry
    {
        Cycle at;
        std::uint64_t seq;
        PacketPtr pkt;
        bool operator>(const FastEntry &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };
    std::priority_queue<FastEntry, std::vector<FastEntry>,
                        std::greater<>>
        fastQueue_;
    std::uint64_t fastSeq_ = 0;

    /** Packets handed to send() since construction; sendsTotal_ -
     * packetsDelivered is the outstanding population feeding the
     * analytic contention term (counted send-side so loopback and
     * NI-queued packets are included — see analyticLatency()). */
    std::uint64_t sendsTotal_ = 0;

    /** Hybrid window oracle (null = exact fidelity). */
    const unsigned *fastWaiters_ = nullptr;

    /** Window state for the close-transition congestion correction
     * in send(): the cycle the last open window closed, and whether
     * the most recent send saw an open window. */
    bool windowOpen_ = false;
    Cycle windowClosedAt_ = neverCycle;
    Cycle windowOpenedAt_ = neverCycle;

    Tracer *trace_ = nullptr; ///< window open/close events only

    NetworkStats stats_;
};

} // namespace ocor

#endif // OCOR_NOC_NETWORK_HH
