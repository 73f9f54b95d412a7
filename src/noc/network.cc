#include "noc/network.hh"

#include "common/log.hh"

namespace ocor
{

void
NetworkStats::merge(const NetworkStats &o)
{
    packetsDelivered += o.packetsDelivered;
    lockPacketsDelivered += o.lockPacketsDelivered;
    packetLatency.merge(o.packetLatency);
    lockPacketLatency.merge(o.lockPacketLatency);
    dataPacketLatency.merge(o.dataPacketLatency);
    packetLatencyHist.merge(o.packetLatencyHist);
    lockPacketLatencyHist.merge(o.lockPacketLatencyHist);
}

Network::Network(const MeshShape &mesh, const NocParams &params,
                 const OcorConfig &ocor)
    : mesh_(mesh), params_(params), ocor_(ocor),
      bandOf_(mesh.numNodes(), 0), delivered_(1), inFlits_(1),
      inCredits_(1)
{
    const unsigned n = mesh.numNodes();
    routers_.reserve(n);
    nis_.reserve(n);
    routerLinks_.reserve(4 * n);
    for (NodeId i = 0; i < n; ++i) {
        routers_.push_back(
            std::make_unique<Router>(i, mesh, params, ocor));
        nis_.push_back(
            std::make_unique<NetworkInterface>(i, params, ocor));
    }

    auto new_link = [&]() {
        links_.push_back(std::make_unique<Link>(
            params.linkLatency, params.numVcs * params.vcDepth));
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
            routerLinks_.push_back({i_to_e, i, east});
            routerLinks_.push_back({e_to_i, east, i});
        }
        NodeId south = mesh.neighbor(i, PortSouth);
        if (south != invalidNode) {
            Link *i_to_s = new_link();
            Link *s_to_i = new_link();
            routers_[i]->attach(PortSouth, s_to_i, i_to_s);
            routers_[south]->attach(PortNorth, i_to_s, s_to_i);
            routerLinks_.push_back({i_to_s, i, south});
            routerLinks_.push_back({s_to_i, south, i});
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
        [this, node, fn = std::move(fn)](const PacketPtr &pkt, Cycle now) {
            NetworkStats &st = delivered_[bandOf_[node]];
            ++st.packetsDelivered;
            double lat =
                static_cast<double>(pkt->ejectCycle - pkt->injectCycle);
            st.packetLatency.sample(lat);
            st.packetLatencyHist.sample(lat);
            if (isLockProtocol(pkt->type)) {
                ++st.lockPacketsDelivered;
                st.lockPacketLatency.sample(lat);
                st.lockPacketLatencyHist.sample(lat);
            } else {
                st.dataPacketLatency.sample(lat);
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
    nis_[pkt->src]->inject(pkt, now);
}

Cycle
Network::uncontendedLatency(const Packet &pkt) const
{
    // Same-node traffic takes the NI's 1-cycle loopback.
    if (pkt.src == pkt.dst)
        return 1;
    const Cycle hops = mesh_.hops(pkt.src, pkt.dst);
    // The head waits one cycle in the NI's injection queue, crosses
    // the NI-to-router link, then the pipeline and output link of each
    // of the hops + 1 routers on its path (the last link reaches the
    // sink NI, which ejects on arrival). Body flits follow one per
    // cycle.
    return 1 + params_.linkLatency
           + (hops + 1) * (params_.routerStages + params_.linkLatency)
           + (pkt.numFlits - 1);
}

void
Network::tick(Cycle now)
{
    tickRouters(0, mesh_.numNodes(), now);
    tickNis(0, mesh_.numNodes(), now);
}

void
Network::tickRouters(NodeId first, NodeId last, Cycle now)
{
    // Routers and NIs gate themselves on their own pending work.
    for (NodeId n = first; n < last; ++n)
        routers_[n]->tick(now);
}

void
Network::tickNis(NodeId first, NodeId last, Cycle now)
{
    for (NodeId n = first; n < last; ++n)
        nis_[n]->tick(now);
}

Cycle
Network::nextWake(Cycle now) const
{
    return nextWake(0, mesh_.numNodes(), now);
}

Cycle
Network::nextWake(NodeId first, NodeId last, Cycle now) const
{
    for (NodeId n = first; n < last; ++n)
        if (routers_[n]->busy())
            return now + 1;
    Cycle w = neverCycle;
    for (NodeId n = first; n < last; ++n) {
        Cycle nw = nis_[n]->nextWake(now);
        if (nw < w)
            w = nw;
    }
    if (w <= now)
        w = now + 1;
    return w;
}

bool
Network::idle() const
{
    for (const auto &r : routers_)
        if (r->busy())
            return false;
    for (const auto &ni : nis_)
        if (!ni->idle())
            return false;
    for (const auto &l : links_)
        if (!l->idle())
            return false;
    return true;
}

void
Network::setTracer(Tracer *t)
{
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

NetworkStats
Network::stats() const
{
    NetworkStats s;
    for (const NetworkStats &d : delivered_)
        s.merge(d);
    return s;
}

void
Network::partition(std::vector<unsigned> bandOf)
{
    if (bandOf == bandOf_)
        return;
    const unsigned bands = bandOf.back() + 1;
    NetworkStats all = stats();
    delivered_.assign(bands, NetworkStats{});
    delivered_.front() = std::move(all);
    inFlits_.assign(bands, {});
    inCredits_.assign(bands, {});
    for (const RouterLink &rl : routerLinks_) {
        const unsigned from = bandOf[rl.from];
        const unsigned to = bandOf[rl.to];
        rl.link->setDeferred(from != to);
        if (from != to) {
            inFlits_[to].push_back(rl.link);
            inCredits_[from].push_back(rl.link);
        }
    }
    bandOf_ = std::move(bandOf);
}

void
Network::landPending(unsigned band)
{
    for (Link *l : inFlits_[band])
        l->landPendingFlit();
    for (Link *l : inCredits_[band])
        l->landPendingCredit();
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
