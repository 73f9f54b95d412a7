#include "noc/link.hh"

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

    const Cycle at = now + latency_;
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
