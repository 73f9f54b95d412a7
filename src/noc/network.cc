#include "noc/network.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"

namespace ocor
{

Network::Network(const MeshShape &mesh, const NocParams &params,
                 const OcorConfig &ocor, FaultInjector *fault)
    : mesh_(mesh), params_(params), ocor_(ocor)
{
    const unsigned n = mesh.numNodes();
    routers_.reserve(n);
    nis_.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
        routers_.push_back(
            std::make_unique<Router>(i, mesh, params, ocor));
        nis_.push_back(
            std::make_unique<NetworkInterface>(i, params, ocor));
        if (fault) {
            nis_[i]->setFaultInjector(fault);
            nis_[i]->setAckChannel(
                [this](NodeId src, std::uint64_t seq, Cycle now) {
                    nis_[src]->onAcked(seq, now);
                });
        }
    }

    unsigned next_link_id = 0;
    auto new_link = [&]() {
        links_.push_back(std::make_unique<Link>(
            params.linkLatency, params.numVcs * params.vcDepth));
        if (fault)
            links_.back()->setFaultInjector(fault, next_link_id);
        ++next_link_id;
        return links_.back().get();
    };

    // Inter-router links: create one per directed adjacency, wiring
    // east/west and north/south pairs once from the lower index side.
    for (NodeId i = 0; i < n; ++i) {
        NodeId east = mesh.neighbor(i, PortEast);
        if (east != invalidNode) {
            Link *i_to_e = new_link();
            Link *e_to_i = new_link();
            routers_[i]->attach(PortEast, e_to_i, i_to_e);
            routers_[east]->attach(PortWest, i_to_e, e_to_i);
        }
        NodeId south = mesh.neighbor(i, PortSouth);
        if (south != invalidNode) {
            Link *i_to_s = new_link();
            Link *s_to_i = new_link();
            routers_[i]->attach(PortSouth, s_to_i, i_to_s);
            routers_[south]->attach(PortNorth, i_to_s, s_to_i);
        }
    }

    // NI <-> router local port.
    for (NodeId i = 0; i < n; ++i) {
        Link *ni_to_r = new_link();
        Link *r_to_ni = new_link();
        routers_[i]->attach(PortLocal, ni_to_r, r_to_ni);
        nis_[i]->attach(ni_to_r, r_to_ni);
    }
}

void
Network::setNodeSink(NodeId node, NetworkInterface::DeliverFn fn)
{
    nis_[node]->setDeliver(
        [this, fn = std::move(fn)](const PacketPtr &pkt, Cycle now) {
            ++stats_.packetsDelivered;
            double lat =
                static_cast<double>(pkt->ejectCycle - pkt->injectCycle);
            stats_.packetLatency.sample(lat);
            stats_.packetLatencyHist.sample(lat);
            if (isLockProtocol(pkt->type)) {
                ++stats_.lockPacketsDelivered;
                stats_.lockPacketLatency.sample(lat);
                stats_.lockPacketLatencyHist.sample(lat);
            } else {
                stats_.dataPacketLatency.sample(lat);
            }
            fn(pkt, now);
        });
}

void
Network::send(const PacketPtr &pkt, Cycle now)
{
    if (pkt->src >= mesh_.numNodes() || pkt->dst >= mesh_.numNodes())
        ocor_panic("Network::send: bad endpoints %u->%u", pkt->src,
                   pkt->dst);
    ++sendsTotal_;
    // Hybrid fast path: while no thread waits on any lock word and
    // the mesh population is below the analytic contention capacity,
    // non-lock traffic is delivered analytically. Lock-protocol
    // packets always travel the exact mesh so races keep full
    // fidelity (a lock operation also makes the window close, since
    // the acquirer itself counts as a waiter until CS entry), and
    // saturated spans do too: past the capacity knee latency is
    // dominated by queueing dynamics the mean-latency model cannot
    // reproduce, so fidelity wins over speed there.
    if (fastWaiters_ && *fastWaiters_ == 0
        && !isLockProtocol(pkt->type)
        && sendsTotal_ - stats_.packetsDelivered
               <= 3 * mesh_.numNodes()) {
        if (!windowOpen_) {
            windowOpen_ = true;
            windowOpenedAt_ = now;
            ++stats_.windowsOpened;
            if (trace_)
                trace_->record(TraceCat::Noc, TraceEv::WindowOpen,
                               now, pkt->src);
        }
        fastSend(pkt, now);
        return;
    }
    // Window closed (or lock packet): a fully-exact run would have
    // the outstanding population spread through the mesh right now,
    // but here part of it is analytic and the recent exact injections
    // are still clustered at their sources, so a transit would be
    // unrealistically fast — right when fidelity matters most (the
    // lock handover). Charge the missing congestion as an injection
    // delay with the full analytic contention at the moment a window
    // closes, fading out as exact traffic physically re-spreads
    // through the mesh: the fade tracks whichever is slower of the
    // analytic queue draining and a full congested-latency period
    // elapsing since the close.
    Cycle at = now;
    if (fastWaiters_) {
        if (windowOpen_) {
            windowOpen_ = false;
            windowClosedAt_ = now;
            ++stats_.windowsClosed;
            stats_.windowCycles += now - windowOpenedAt_;
            // Close cause, most specific first: a live waiter shuts
            // the window regardless of what this packet is; a lock
            // packet with zero waiters is the protocol edge (e.g. a
            // release); otherwise the population crossed capacity.
            std::uint32_t cause;
            if (*fastWaiters_ > 0) {
                ++stats_.windowCloseWaiter;
                cause = 0;
            } else if (isLockProtocol(pkt->type)) {
                ++stats_.windowCloseLock;
                cause = 1;
            } else {
                ++stats_.windowCloseLoad;
                cause = 2;
            }
            if (trace_)
                trace_->record(
                    TraceCat::Noc, TraceEv::WindowClose, now,
                    pkt->src, invalidThread, 0, 0, cause,
                    static_cast<std::uint32_t>(std::min<Cycle>(
                        now - windowOpenedAt_, 0xffffffffu)));
        }
        const Cycle extra =
            analyticLatency(*pkt) - uncontendedLatency(*pkt);
        const std::uint64_t load = sendsTotal_ - stats_.packetsDelivered;
        const Cycle qdelay = extra * fastQueue_.size()
                             / std::max<std::uint64_t>(load, 1);
        Cycle tdelay = 0;
        const Cycle horizon = 2 * extra;
        if (windowClosedAt_ != neverCycle
            && now < windowClosedAt_ + horizon && horizon > 0)
            tdelay = extra * (windowClosedAt_ + horizon - now) / horizon;
        at = now + std::max(qdelay, tdelay);
    }
    nis_[pkt->src]->inject(pkt, at);
}

Cycle
Network::uncontendedLatency(const Packet &pkt) const
{
    // Same-node traffic mirrors the exact model's 1-cycle loopback.
    if (pkt.src == pkt.dst)
        return 1;
    const Cycle hops = mesh_.hops(pkt.src, pkt.dst);
    // One cycle into the mesh, the router pipeline plus link
    // traversal per hop, serialization of the body flits behind the
    // head, one cycle out.
    return 2 + hops * (params_.routerStages + params_.linkLatency)
           + (pkt.numFlits - 1);
}

Cycle
Network::analyticLatency(const Packet &pkt) const
{
    Cycle lat = uncontendedLatency(pkt);
    if (pkt.src == pkt.dst)
        return lat;
    // Contention: every concurrently in-flight packet — analytic or
    // exact — competes for the same links. Counting the exact mesh
    // population matters at window-open: the mesh is still draining
    // the traffic of the preceding contention episode, and pricing
    // that in keeps the first analytic latencies of a window from
    // collapsing to the uncontended base. Below roughly one packet
    // per node the mesh absorbs traffic without queueing (VC buffers
    // cover the transient), so only the population above that
    // capacity is charged, spread across the mesh rows (each packet
    // crosses ~one row + one column under XY routing). The population
    // is counted send-side (every packet passes Network::send exactly
    // once) so NI-queued, loopback and analytic packets are all
    // covered; per-NI inject counters only tick at tail-flit mesh
    // entry and would let loopback deliveries underflow the balance.
    const std::uint64_t load = sendsTotal_ - stats_.packetsDelivered;
    const std::uint64_t cap = 3 * mesh_.numNodes();
    if (load > cap)
        lat += (load - cap) * pkt.numFlits
               / (mesh_.width + mesh_.height);
    return lat;
}

void
Network::fastSend(const PacketPtr &pkt, Cycle now)
{
    pkt->injectCycle = now;
    pkt->networkEnter = now;
    ++stats_.fastpathPackets;
    fastQueue_.push({now + analyticLatency(*pkt), fastSeq_++, pkt});
}

void
Network::drainFastpath(Cycle now)
{
    while (!fastQueue_.empty() && fastQueue_.top().at <= now) {
        PacketPtr pkt = fastQueue_.top().pkt;
        fastQueue_.pop();
        nis_[pkt->dst]->deliverDirect(pkt, now);
    }
}

void
Network::tick(Cycle now)
{
    if (!fastQueue_.empty())
        drainFastpath(now);
    // Legacy exact path: every component every cycle, by definition.
    for (auto &r : routers_)  // simlint: allow(unconditional-tick)
        r->tick(now);
    for (auto &ni : nis_)  // simlint: allow(unconditional-tick)
        ni->tick(now);
}

void
Network::tickEvent(Cycle now)
{
    if (!fastQueue_.empty())
        drainFastpath(now);
    // Router::tick gates itself on its link due tests and request masks.
    for (auto &r : routers_)  // simlint: allow(unconditional-tick)
        r->tick(now);
    for (auto &ni : nis_)
        ni->tickEvent(now);
}

Cycle
Network::nextWake(Cycle now) const
{
    for (const auto &r : routers_)
        if (r->busy())
            return now + 1;
    for (const auto &l : links_)
        if (!l->idle())
            return now + 1;
    Cycle w = neverCycle;
    for (const auto &ni : nis_) {
        Cycle n = ni->nextWake(now);
        if (n < w)
            w = n;
    }
    if (!fastQueue_.empty())
        w = std::min(w, fastQueue_.top().at);
    if (w <= now)
        w = now + 1;
    return w;
}

const char *
netWakeReasonName(NetWakeReason r)
{
    switch (r) {
      case NetWakeReason::RouterBusy: return "router_busy";
      case NetWakeReason::LinkBusy:   return "link_busy";
      case NetWakeReason::Fastpath:   return "fastpath";
      case NetWakeReason::NiQueue:    return "ni_queue";
      case NetWakeReason::Idle:       return "idle";
      default:                        return "?";
    }
}

NetWakeReason
Network::wakeReason(Cycle now) const
{
    for (const auto &r : routers_)
        if (r->busy())
            return NetWakeReason::RouterBusy;
    for (const auto &l : links_)
        if (!l->idle())
            return NetWakeReason::LinkBusy;
    Cycle ni_wake = neverCycle;
    for (const auto &ni : nis_)
        ni_wake = std::min(ni_wake, ni->nextWake(now));
    if (!fastQueue_.empty() && fastQueue_.top().at <= ni_wake)
        return NetWakeReason::Fastpath;
    if (ni_wake != neverCycle)
        return NetWakeReason::NiQueue;
    return NetWakeReason::Idle;
}

void
Network::finalizeWindows(Cycle now)
{
    if (!windowOpen_)
        return;
    stats_.windowCycles += now - windowOpenedAt_;
    windowOpenedAt_ = now; // idempotent: re-finalizing adds zero
}

bool
Network::idle() const
{
    for (const auto &r : routers_)
        if (r->occupancy() != 0)
            return false;
    for (const auto &ni : nis_)
        if (!ni->idle())
            return false;
    for (const auto &l : links_)
        if (!l->idle())
            return false;
    return fastQueue_.empty();
}

void
Network::setTracer(Tracer *t)
{
    trace_ = t;
    for (auto &r : routers_)
        r->setTracer(t);
    for (auto &ni : nis_)
        ni->setTracer(t);
}

void
Network::setChecker(CheckerRegistry *c)
{
    for (auto &r : routers_)
        r->setChecker(c);
    for (auto &ni : nis_)
        ni->setChecker(c);
    for (auto &l : links_)
        l->setChecker(c);
}

std::uint64_t
Network::totalFlitsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &ni : nis_)
        n += ni->stats().flitsInjected;
    return n;
}

std::uint64_t
Network::totalPacketsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &ni : nis_)
        n += ni->stats().packetsInjected;
    return n;
}

std::uint64_t
Network::totalLockPacketsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &ni : nis_)
        n += ni->stats().lockPacketsInjected;
    return n;
}

} // namespace ocor
