#include "noc/link.hh"

#include <algorithm>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "noc/router.hh"

namespace ocor
{

Link::Link(unsigned latency, unsigned capacity)
    : flits_(capacity), credits_(capacity), latency_(latency),
      arrived_(std::make_unique<unsigned[]>(credits_.capacity()))
{}

void
Link::creditOverflow() const
{
    ocor_panic("Link: more than %zu credits in flight",
               credits_.capacity());
}

void
Link::flitDelivered()
{
    check_->onLinkFlitDelivered();
}

void
Link::deliverCredit(unsigned vc, Cycle at)
{
    if (creditRx_) {
        creditRx_->landCredit(creditPort_, vc, at);
        return;
    }
    if (credits_.full())
        creditOverflow();
    if (credits_.empty())
        creditAt_ = at;
    credits_.push({at, vc});
}

void
Link::sendFlit(Flit flit, Cycle now)
{
    if (lastFlitSend_ != neverCycle && lastFlitSend_ == now)
        ocor_panic("Link: two flits sent in cycle %llu",
                   static_cast<unsigned long long>(now));
    lastFlitSend_ = now;
    ++flitsCarried_;
    if (check_)
        check_->onLinkFlitSent();

    Cycle at = now + latency_;
    if (fault_ && fault_->active()) {
        Cycle extra = 0;
        if (fault_->targets(linkId_, *flit.pkt)) {
            // Drop decisions are per packet (made at the head) so the
            // downstream agent never sees a partial packet; corruption
            // and jitter are per flit.
            if (flit.isHead() && fault_->drawDrop())
                droppingPkts_.insert(flit.pkt->id);
            auto it = droppingPkts_.find(flit.pkt->id);
            if (it != droppingPkts_.end()) {
                if (flit.isTail()) {
                    droppingPkts_.erase(it);
                    ++fault_->stats().packetsDropped;
                }
                ++fault_->stats().flitsDropped;
                // The flit consumed wire bandwidth but will never
                // occupy the downstream buffer slot the sender
                // debited: synthesize its credit so flow control
                // does not leak.
                deliverCredit(flit.vc, now + latency_);
                return;
            }
            if (fault_->drawCorrupt()) {
                flit.corrupted = true;
                ++fault_->stats().flitsCorrupted;
            }
            extra = fault_->drawJitter();
            if (extra > 0)
                ++fault_->stats().flitsDelayed;
        }
        // A stalled flit must not be overtaken by later ones (FIFO
        // wire), and the wire still delivers at most one flit per
        // cycle: arrivals are strictly increasing.
        at = std::max(now + latency_ + extra, lastArrival_ + 1);
        lastArrival_ = at;
    }
    if (flitRx_) {
        if (check_)
            flitDelivered();
        flitRx_->landFlit(flitPort_, std::move(flit), at);
        return;
    }
    if (flits_.full())
        ocor_panic("Link: more than %zu flits in flight",
                   flits_.capacity());
    if (flits_.empty())
        flitAt_ = at;
    flits_.push({at, std::move(flit)});
}

} // namespace ocor
