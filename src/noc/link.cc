#include "noc/link.hh"

#include <utility>

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
    if (deferred_) {
        // One credit per cycle: the receiver sends at most one flit
        // per cycle from this link's input port.
        if (pendingCreditAt_ != neverCycle)
            ocor_panic("Link: two credits parked in one cycle");
        pendingCreditAt_ = at;
        pendingCreditVc_ = vc;
        return;
    }
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
    if (check_)
        check_->onLinkFlitSent();

    const Cycle at = now + latency_;
    if (deferred_) {
        if (pendingFlitAt_ != neverCycle)
            ocor_panic("Link: a parked flit was never landed");
        pendingFlitAt_ = at;
        pendingFlit_ = std::move(flit);
        return;
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

void
Link::landPendingFlit()
{
    if (pendingFlitAt_ == neverCycle)
        return;
    if (check_)
        flitDelivered();
    flitRx_->landFlit(flitPort_, std::move(pendingFlit_),
                      std::exchange(pendingFlitAt_, neverCycle));
}

void
Link::landPendingCredit()
{
    if (pendingCreditAt_ == neverCycle)
        return;
    creditRx_->landCredit(creditPort_, pendingCreditVc_,
                          std::exchange(pendingCreditAt_, neverCycle));
}

} // namespace ocor
