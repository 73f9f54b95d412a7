#include "noc/network.hh"

#include "common/log.hh"

namespace ocor
{

Network::Network(const MeshShape &mesh, const NocParams &params,
                 const OcorConfig &ocor)
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
    // Routers and NIs gate themselves on their own pending work.
    for (auto &r : routers_)  // simlint: allow(unconditional-tick)
        r->tick(now);
    for (auto &ni : nis_)  // simlint: allow(unconditional-tick)
        ni->tick(now);
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
