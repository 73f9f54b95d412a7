/**
 * @file
 * Point-to-point link with fixed latency.
 *
 * A Link is unidirectional for flits (upstream -> downstream) and
 * carries per-VC credits in the reverse direction. Bandwidth is one
 * flit per cycle; credits are not bandwidth limited (a credit wire
 * per VC).
 *
 * Router::attach binds the ends a router owns: the downstream end of
 * each input link (sendFlit lands the flit in the router's input VC,
 * stamped with its arrival cycle) and the upstream end of each output
 * link (sendCredit lands the credit in the router's due queue). The
 * wire policy (bandwidth, checker counts) runs before the hand-over
 * either way.
 *
 * A link whose two routers tick on different threads (System's mesh
 * strips, DESIGN.md §13) is deferred: sendFlit and sendCredit park
 * the flit and the credit in one-cycle pending slots, and the
 * receiving side lands them after the router phase of the same cycle
 * (landPendingFlit, landPendingCredit). Both arrive at now + latency,
 * so landing them later in the sending cycle changes nothing the
 * receiver sees.
 *
 * The rings serve only unbound ends: the NI's side of its two links
 * and test probes. Both are fixed-capacity. Credit flow control
 * bounds what is ever in flight: per downstream VC, upstream credits
 * plus flits on the wire plus buffered flits plus credits on the wire
 * make exactly vcDepth, so neither ring holds more than numVcs x
 * vcDepth entries.
 */

#ifndef OCOR_NOC_LINK_HH
#define OCOR_NOC_LINK_HH

#include <memory>
#include <optional>
#include <span>

#include "common/log.hh"
#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/params.hh"
#include "noc/ring.hh"

namespace ocor
{

class CheckerRegistry;
class Router;

/** One-cycle (configurable) pipelined channel between two agents.
 * The state an unbound receiver polls every cycle comes first in the
 * object. */
class Link
{
  public:
    /** In-flight bound of a link between default-configured agents. */
    static constexpr unsigned defaultCapacity =
        NocParams{}.numVcs * NocParams{}.vcDepth;

    /**
     * @p capacity bounds the flits and, separately, the credits in
     * flight (numVcs x vcDepth of the downstream buffer); exceeding
     * it panics.
     */
    explicit Link(unsigned latency = 1,
                  unsigned capacity = defaultCapacity);

    /** Attach the invariant checker (null = checking off): feeds the
     * wire-level flit conservation ledger. */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /** Bind the downstream end to input @p port of @p r (see the file
     * comment); Router::attach calls this. */
    void
    bindFlitReceiver(Router *r, unsigned port)
    {
        flitRx_ = r;
        flitPort_ = port;
    }

    /** Bind the upstream end to output @p port of @p r, the router
     * that sends flits on this link and takes its credits. */
    void
    bindCreditReceiver(Router *r, unsigned port)
    {
        creditRx_ = r;
        creditPort_ = port;
    }

    /** Park flits and credits in the pending slots instead of
     * landing them (both ends must be bound); see the file comment. */
    void setDeferred(bool on) { deferred_ = on; }

    /** Upstream puts a flit on the wire during cycle @p now (pass an
     * rvalue to hand over the packet reference without a copy). A
     * bound link lands it in the receiving router right away, or
     * parks it when deferred. */
    void sendFlit(Flit flit, Cycle now);

    /** Land the flit parked this cycle, if any, in the receiving
     * router. */
    void landPendingFlit();

    /** Land the credit parked this cycle, if any, in the sending
     * router. */
    void landPendingCredit();

    /** An unbound downstream takes the flit arriving at cycle @p now,
     * if any. */
    std::optional<Flit>
    takeFlit(Cycle now)
    {
        if (flitAt_ > now)
            return std::nullopt;
        if (flitAt_ < now)
            ocor_panic("Link: flit missed its delivery cycle");
        std::optional<Flit> f(std::move(flits_.front().flit));
        flits_.pop();
        flitAt_ = flits_.empty() ? neverCycle : flits_.front().at;
        if (check_)
            flitDelivered();
        return f;
    }

    /** Downstream returns a credit for VC @p vc during cycle @p now;
     * it arrives at now + latency(). */
    void
    sendCredit(unsigned vc, Cycle now)
    {
        deliverCredit(vc, now + latency_);
    }

    /**
     * An unbound upstream collects all credits arriving at cycle
     * @p now, in send order. The span views storage owned by the link
     * and stays valid until the next takeCredits() call.
     */
    std::span<const unsigned>
    takeCredits(Cycle now)
    {
        std::size_t n = 0;
        while (creditAt_ <= now) {
            if (creditAt_ < now)
                ocor_panic("Link: credit missed its delivery cycle");
            arrived_[n++] = credits_.front().vc;
            credits_.pop();
            creditAt_ = credits_.empty() ? neverCycle : credits_.front().at;
        }
        return {arrived_.get(), n};
    }

    unsigned latency() const { return latency_; }

    /** Nothing on either ring or in a pending slot (a bound end
     * never holds anything: its flits and credits wait in the
     * router). */
    bool
    idle() const
    {
        return flits_.empty() && credits_.empty() &&
               pendingFlitAt_ == neverCycle &&
               pendingCreditAt_ == neverCycle;
    }

    /**
     * O(1) due tests, polled by unbound receivers every cycle.
     * Arrival cycles are monotone within each queue (flits and
     * credits alike are stamped now + latency with monotone now), so
     * the front entry is the earliest and a front check is exact, not
     * heuristic. The front arrivals are kept in the link itself so a
     * poll is one load.
     */
    bool flitDue(Cycle now) const { return flitAt_ <= now; }
    bool creditDue(Cycle now) const { return creditAt_ <= now; }

  private:
    struct WireFlit
    {
        Cycle at = 0;
        Flit flit;
    };
    struct WireCredit
    {
        Cycle at = 0;
        unsigned vc = 0;
    };

    /** A credit for VC @p vc arriving at @p at: into the bound
     * router's due queue, else onto the ring. */
    void deliverCredit(unsigned vc, Cycle at);

    [[noreturn]] void creditOverflow() const;
    void flitDelivered();

    /** Arrival of the front flit / credit (neverCycle = none). */
    Cycle flitAt_ = neverCycle;
    Cycle creditAt_ = neverCycle;
    Ring<WireFlit> flits_;
    Ring<WireCredit> credits_;

    unsigned latency_;
    /** Park flits and credits in the pending slots (setDeferred). */
    bool deferred_ = false;
    /** Bound ends (null = unbound: the ring serves that end). */
    Router *flitRx_ = nullptr;
    Router *creditRx_ = nullptr;
    unsigned flitPort_ = 0;
    unsigned creditPort_ = 0;
    CheckerRegistry *check_ = nullptr;
    Cycle lastFlitSend_ = neverCycle;
    /** Pending slots of a deferred link: at most one flit and one
     * credit per cycle, arriving at the stamped cycle (neverCycle =
     * empty). The sender's thread fills a slot and the receiver's
     * lands it, with a barrier between. */
    Cycle pendingFlitAt_ = neverCycle;
    Cycle pendingCreditAt_ = neverCycle;
    unsigned pendingCreditVc_ = 0;
    Flit pendingFlit_;
    /** takeCredits() result storage, one slot per credit ring slot. */
    std::unique_ptr<unsigned[]> arrived_;
};

} // namespace ocor

#endif // OCOR_NOC_LINK_HH
