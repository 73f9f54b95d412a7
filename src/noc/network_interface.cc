#include "noc/network_interface.hh"

#include <algorithm>
#include <bit>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "core/priority.hh"
#include "noc/routing.hh"

namespace ocor
{

NetworkInterface::NetworkInterface(NodeId id, const NocParams &params,
                                   const OcorConfig &ocor)
    : id_(id), params_(params), ocor_(ocor), sendArb_(params.numVcs),
      reassembly_(params.numVcs)
{
    outVcs_.resize(params.numVcs);
    for (auto &vc : outVcs_)
        vc.credits = params.vcDepth;
    if (params.vcDepth > 0)
        creditedVcs_ = (std::uint32_t{1} << params.numVcs) - 1;
}

void
NetworkInterface::attach(Link *to_router, Link *from_router)
{
    toRouter_ = to_router;
    fromRouter_ = from_router;
}

void
NetworkInterface::inject(const PacketPtr &pkt, Cycle now)
{
    pkt->injectCycle = now;
    if (check_)
        check_->onInject(*pkt, now);
    if (trace_)
        trace_->record(TraceCat::Noc, TraceEv::PktInject, now, id_,
                       invalidThread, 0, pkt->id,
                       static_cast<std::uint32_t>(pkt->type),
                       pkt->dst);
    if (pkt->dst == id_) {
        // Local traffic never enters the mesh; model a minimal
        // loopback latency.
        loopback_.emplace_back(now + 1, pkt);
        return;
    }
    injectQueue_.push_back({pkt, now + 1});
    stats_.injectQueuePeak =
        std::max<std::uint64_t>(stats_.injectQueuePeak,
                                injectQueue_.size());
}

bool
NetworkInterface::idle() const
{
    if (!injectQueue_.empty() || !loopback_.empty())
        return false;
    return activeVcs_ == 0 && reassembling_ == 0;
}

void
NetworkInterface::ejectIncoming(Cycle now)
{
    // Loopback deliveries.
    while (!loopback_.empty() && loopback_.front().first <= now) {
        auto pkt = loopback_.front().second;
        loopback_.pop_front();
        eject(pkt, now);
    }

    if (!fromRouter_)
        return;

    // The router's local port delivers at most one flit per cycle;
    // the NI consumes it immediately and returns the credit.
    while (auto flit = fromRouter_->takeFlit(now)) {
        fromRouter_->sendCredit(flit->vc, now);
        if (flit->vc >= reassembly_.size())
            ocor_panic("NI %u: bad flit vc %u", id_, flit->vc);
        PacketPtr &rx = reassembly_[flit->vc];
        const bool tail = flit->isTail();
        if (flit->isHead()) {
            if (rx)
                ocor_panic("NI %u: head over unfinished packet", id_);
            rx = std::move(flit->pkt);
            ++reassembling_;
        } else if (!rx) {
            ocor_panic("NI %u: flit without head", id_);
        }
        if (tail) {
            const PacketPtr pkt = std::exchange(rx, nullptr);
            --reassembling_;
            eject(pkt, now);
        }
    }
}

void
NetworkInterface::eject(const PacketPtr &pkt, Cycle now)
{
    pkt->ejectCycle = now;
    ++stats_.packetsEjected;
    if (trace_)
        trace_->record(TraceCat::Noc, TraceEv::PktEject, now, id_,
                       invalidThread, 0, pkt->id,
                       static_cast<std::uint32_t>(pkt->type),
                       pkt->src);
    if (deliver_)
        deliver_(pkt, now);
}

void
NetworkInterface::assignVcs(Cycle now)
{
    // Hand free VCs, lowest first, to the highest-rank waiting
    // packets. FIFO order among equal ranks (stable scan).
    std::uint32_t free =
        ~activeVcs_ & ((std::uint32_t{1} << params_.numVcs) - 1);
    for (; free != 0 && !injectQueue_.empty(); free &= free - 1) {
        const auto v = static_cast<unsigned>(std::countr_zero(free));
        std::int64_t best = -1;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < injectQueue_.size(); ++i) {
            QueuedPacket &q = injectQueue_[i];
            if (q.ready > now)
                continue;
            if (q.rank < 0)
                q.rank = static_cast<std::int64_t>(
                    priorityRank(ocor_, q.pkt->priority));
            if (q.rank > best) {
                best = q.rank;
                best_idx = i;
            }
        }
        if (best < 0)
            break;
        ActiveVc &vc = outVcs_[v];
        vc.pkt = std::move(injectQueue_[best_idx].pkt);
        vc.rank = best;
        vc.nextFlit = 0;
        activeVcs_ |= std::uint32_t{1} << v;
        rankedVcs_ |= std::uint32_t{best != 0} << v;
        injectQueue_.erase(injectQueue_.begin()
                           + static_cast<std::ptrdiff_t>(best_idx));
    }
}

void
NetworkInterface::sendOneFlit(Cycle now)
{
    if (!toRouter_)
        return;

    const std::uint32_t ready = activeVcs_ & creditedVcs_;
    if (ready == 0)
        return;
    const auto v = static_cast<unsigned>(
        (ready & rankedVcs_) == 0
            ? sendArb_.pickEqual(ReqMask(ready))
            : sendArb_.pick(ReqMask(ready), [&](unsigned i) {
                  return outVcs_[i].rank;
              }));
    const std::uint32_t vbit = std::uint32_t{1} << v;

    auto &vc = outVcs_[v];
    Flit flit;
    flit.index = vc.nextFlit;
    flit.type = flitTypeFor(vc.nextFlit, vc.pkt->numFlits);
    flit.vc = v;
    const bool tail = flit.isTail();

    if (flit.isHead())
        vc.pkt->networkEnter = now;
    if (tail) {
        ++stats_.packetsInjected;
        if (isLockProtocol(vc.pkt->type))
            ++stats_.lockPacketsInjected;
        // The tail takes over the VC's packet reference.
        flit.pkt = std::exchange(vc.pkt, nullptr);
        vc.nextFlit = 0;
        activeVcs_ &= ~vbit;
        rankedVcs_ &= ~vbit;
    } else {
        flit.pkt = vc.pkt;
        ++vc.nextFlit;
    }

    toRouter_->sendFlit(std::move(flit), now);
    if (--vc.credits == 0)
        creditedVcs_ &= ~vbit;
    ++stats_.flitsInjected;
    // The NI's injection VCs are "port NumPorts" in the credit
    // ledger: a pseudo-port that can never clash with a router port.
    if (check_)
        check_->onTraversal(id_, NumPorts, v, now);
}

void
NetworkInterface::tick(Cycle now)
{
    const bool due =
        (toRouter_ && toRouter_->creditDue(now)) ||
        (fromRouter_ && fromRouter_->flitDue(now)) ||
        (!loopback_.empty() && loopback_.front().first <= now) ||
        (!injectQueue_.empty() && injectQueue_.front().ready <= now) ||
        (activeVcs_ & creditedVcs_) != 0;
    if (!due)
        return;

    // Credits from the router's local input port.
    if (toRouter_) {
        for (unsigned v : toRouter_->takeCredits(now)) {
            if (v >= params_.numVcs)
                ocor_panic("NI %u: bad credit vc %u", id_, v);
            auto &vc = outVcs_[v];
            if (vc.credits >= params_.vcDepth)
                ocor_panic("NI %u: credit overflow", id_);
            if (vc.credits++ == 0)
                creditedVcs_ |= std::uint32_t{1} << v;
            if (check_)
                check_->onCreditReturn(id_, NumPorts, v, now);
        }
    }

    ejectIncoming(now);
    assignVcs(now);
    sendOneFlit(now);
}

} // namespace ocor
