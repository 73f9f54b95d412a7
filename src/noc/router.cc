#include "noc/router.hh"

#include <bit>
#include <utility>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "core/priority.hh"

namespace ocor
{

namespace
{

constexpr std::uint32_t
bit(unsigned v)
{
    return std::uint32_t{1} << v;
}

/** Call @p fn(v) for every set bit of @p mask, in ascending order. */
template <class Fn>
void
forEachBit(std::uint32_t mask, Fn &&fn)
{
    for (; mask != 0; mask &= mask - 1)
        fn(static_cast<unsigned>(std::countr_zero(mask)));
}

/** One arbiter of @p inputs inputs per router port. */
std::array<Arbiter, NumPorts>
perPort(unsigned inputs)
{
    static_assert(NumPorts == 5);
    return {Arbiter(inputs), Arbiter(inputs), Arbiter(inputs),
            Arbiter(inputs), Arbiter(inputs)};
}

} // namespace

Router::Router(NodeId id, const MeshShape &mesh,
               const NocParams &params, const OcorConfig &ocor)
    : id_(id), mesh_(mesh), params_(params), ocor_(ocor),
      nvc_(params.numVcs), depth_(params.vcDepth),
      vaArb_(perPort(NumPorts * params.numVcs)),
      saLocalArb_(perPort(params.numVcs)), saGlobalArb_(perPort(NumPorts)),
      due_(NumPorts * params.numVcs * params.vcDepth),
      slots_(NumPorts * params.numVcs * params.vcDepth)
{
    if (nvc_ == 0 || nvc_ > maxVcs)
        ocor_panic("Router: numVcs %u not in [1, %u]", nvc_, maxVcs);
    credits_.fill(depth_);
    freeOutVcs_.fill(bit(nvc_) - 1);
}

void
Router::attach(unsigned port, Link *in_link, Link *out_link)
{
    if (port >= NumPorts)
        ocor_panic("Router::attach: bad port %u", port);
    for (const Link *l : {in_link, out_link}) {
        if (!l)
            continue;
        if (linkLatency_ == neverCycle)
            linkLatency_ = l->latency();
        else if (l->latency() != linkLatency_)
            ocor_panic("router %u: link latency %u differs from the "
                       "%llu of its other links", id_, l->latency(),
                       static_cast<unsigned long long>(linkLatency_));
    }
    inLinks_[port] = in_link;
    outLinks_[port] = out_link;
    if (in_link)
        in_link->bindFlitReceiver(this, port);
    if (out_link)
        out_link->bindCreditReceiver(this, port);
}

void
Router::badCreditVc(unsigned vc) const
{
    ocor_panic("router %u: bad credit vc %u", id_, vc);
}

void
Router::dueOverflow() const
{
    ocor_panic("router %u: more than %zu credits due", id_,
               due_.capacity());
}

unsigned
Router::occupancy(Cycle now) const
{
    // Arrivals rise along each VC, so the flits still on the wire are
    // a suffix of its ring.
    unsigned n = buffered_;
    for (unsigned p = 0; p < NumPorts; ++p) {
        forEachBit(nonEmpty_[p], [&](unsigned v) {
            const unsigned i = p * nvc_ + v;
            const VcMeta &m = vcs_[i];
            for (unsigned k = m.count; k-- > 0;) {
                const unsigned s = (m.head + k) % depth_;
                if (slots_[i * depth_ + s].arrival <= now)
                    break;
                --n;
            }
        });
    }
    return n;
}

void
Router::testSwapVcFlits(unsigned port, unsigned v)
{
    const unsigned i = port * nvc_ + v;
    VcMeta &m = vcs_[i];
    if (m.count < 2)
        return;
    const unsigned next = m.head + 1 == depth_ ? 0 : m.head + 1;
    std::swap(slots_[i * depth_ + m.head], slots_[i * depth_ + next]);
    frontChanged(i, frontSlot(i).arrival);
}

void
Router::frontChanged(unsigned i, Cycle arrival)
{
    vcs_[i].frontArrival = arrival;
    inPipeline_[i / nvc_] |= bit(i % nvc_);
}

void
Router::headAtFront(unsigned i, const Flit &head)
{
    const Packet &pkt = *head.pkt;
    VcMeta &m = vcs_[i];
    m.outPort = static_cast<std::uint8_t>(xyRoute(mesh_, id_, pkt.dst));
    m.rank = static_cast<std::int64_t>(priorityRank(ocor_, pkt.priority));
    if (testInvertArb_)
        m.rank = (std::int64_t{1} << 20) - m.rank;
    m.lock = isLockProtocol(pkt.type);
    const unsigned p = i / nvc_;
    const unsigned v = i % nvc_;
    ranked_[p] = (ranked_[p] & ~bit(v)) | (std::uint32_t{m.rank != 0} << v);
    freshHead_[p] |= bit(v);
}

void
Router::drainCredits(Cycle now)
{
    // Credits returning from downstream.
    while (dueAt_ <= now) {
        if (dueAt_ < now)
            ocor_panic("router %u: credit missed its delivery cycle",
                       id_);
        const DueCredit c = due_.front();
        due_.pop();
        dueAt_ = due_.empty() ? neverCycle : due_.front().at;
        const unsigned o = c.port * nvc_ + c.vc;
        if (credits_[o] >= depth_)
            ocor_panic("router %u: credit overflow", id_);
        // A held VC regaining its first slot makes its owner ready.
        if (credits_[o]++ == 0 && (freeOutVcs_[c.port] & bit(c.vc)) == 0)
            creditOk_[owner_[o] / nvc_] |= bit(owner_[o] % nvc_);
        if (check_)
            check_->onCreditReturn(id_, c.port, c.vc, now);
    }
}

void
Router::landFlit(unsigned p, Flit &&flit, Cycle arrival)
{
    const unsigned v = flit.vc;
    if (v >= nvc_)
        ocor_panic("router %u: bad flit vc %u", id_, v);
    const unsigned i = p * nvc_ + v;
    VcMeta &m = vcs_[i];
    if (m.count >= depth_)
        ocor_panic("router %u: VC overflow p=%u vc=%u", id_, p, v);
    unsigned tail = m.head + m.count;
    if (tail >= depth_)
        tail -= depth_;
    Slot &s = slots_[i * depth_ + tail];
    s.flit = std::move(flit);
    s.arrival = arrival;
    if (m.count++ == 0) {
        nonEmpty_[p] |= bit(v);
        frontChanged(i, arrival);
        // An empty VC cannot be mid-packet while unallocated: the
        // previous tail freed it, so a head here starts the next
        // packet.
        if (s.flit.isHead())
            headAtFront(i, s.flit);
    }
    ++buffered_;
    if (check_)
        check_->onVcPush(id_, p, v, s.flit, arrival);
}

void
Router::grantVc(unsigned op, unsigned i, Cycle now)
{
    const auto ovc =
        static_cast<unsigned>(std::countr_zero(freeOutVcs_[op]));
    const unsigned o = op * nvc_ + ovc;
    freeOutVcs_[op] &= ~bit(ovc);
    owner_[o] = static_cast<std::uint8_t>(i);
    vcs_[i].outVc = static_cast<std::uint8_t>(ovc);
    vaReq_[op].set(i, false);
    --vaCount_[op];
    vaRanked_[op] -= vcs_[i].rank != 0;
    if (credits_[o] > 0)
        creditOk_[i / nvc_] |= bit(i % nvc_);
    ++stats_.vaGrants;
    if (trace_) {
        const Packet &pkt = *frontPacket(i);
        trace_->record(TraceCat::Noc, TraceEv::VcAlloc, now, id_,
                       invalidThread, 0, pkt.id,
                       static_cast<std::uint32_t>(pkt.type), op);
    }
}

void
Router::vcAllocation(Cycle now)
{
    // Heads past their one-cycle RC stage join the requesters of the
    // output their cached route names (branch-free: the outcome is
    // data dependent and would mispredict).
    for (unsigned p = 0; p < NumPorts; ++p) {
        forEachBit(freshHead_[p], [&](unsigned v) {
            const unsigned i = p * nvc_ + v;
            const VcMeta &m = vcs_[i];
            const bool ok = m.frontArrival < now;
            freshHead_[p] &= ~(std::uint32_t{ok} << v);
            vaReq_[m.outPort].set(i, ok);
            vaCount_[m.outPort] += ok;
            vaRanked_[m.outPort] += ok & (m.rank != 0);
        });
    }

    for (unsigned op = 0; op < NumPorts; ++op) {
        if (vaCount_[op] == 0 || freeOutVcs_[op] == 0)
            continue;
        if (vaCount_[op] == 1) {
            // No competition: skip the rank scan; grantSingle moves
            // the pointer exactly as pick would.
            const auto sole =
                static_cast<unsigned>(vaReq_[op].firstFrom(0));
            vaArb_[op].grantSingle(sole);
            grantVc(op, sole, now);
            continue;
        }
        // Grant free output VCs to requesters in rank order; the
        // arbiter's pointer rotates ties. With no ranked requester the
        // rank passes cannot change the winner.
        while (vaCount_[op] > 0 && freeOutVcs_[op] != 0) {
            const auto w = static_cast<unsigned>(
                vaRanked_[op] == 0
                    ? vaArb_[op].pickEqual(vaReq_[op])
                    : vaArb_[op].pick(vaReq_[op], [&](unsigned i) {
                          return vcs_[i].rank;
                      }));
            if (check_ && check_->wantsArbitration()) {
                std::vector<const Packet *> cands(NumPorts * nvc_,
                                                  nullptr);
                vaReq_[op].forEach(
                    [&](unsigned i) { cands[i] = frontPacket(i); });
                check_->onArbGrant(id_, "va", cands, w, now);
            }
            grantVc(op, w, now);
        }
    }
}

void
Router::switchAllocation(Cycle now)
{
    // Local stage: per input port, pick the best ready VC (the LPA of
    // Figure 9, modeled by rank arbitration). A VC is ready when it
    // holds a downstream VC with a free slot and its front flit is
    // out of the pipeline.
    std::array<unsigned, NumPorts> localVc{};
    std::array<std::int64_t, NumPorts> localRank{};
    std::array<std::uint32_t, NumPorts> portsFor{}; // per output port
    std::uint32_t outs = 0; // output ports with a local winner
    std::uint32_t rankedPorts = 0; // local winner ranks nonzero
    const Cycle stages = params_.routerStages;

    for (unsigned p = 0; p < NumPorts; ++p) {
        const std::uint32_t cand = creditOk_[p] & nonEmpty_[p];
        if (cand == 0)
            continue;
        const unsigned base = p * nvc_;
        forEachBit(cand & inPipeline_[p], [&](unsigned v) {
            const bool out = vcs_[base + v].frontArrival + stages <= now;
            inPipeline_[p] &= ~(std::uint32_t{out} << v);
        });
        const std::uint32_t ready = cand & ~inPipeline_[p];
        if (ready == 0)
            continue;
        const bool contested = (ready & (ready - 1)) != 0;
        // Lone ready VC, or no ready VC ranked: bypass the rank
        // arbitration (pointer still advances identically).
        const int winner =
            !contested
                ? saLocalArb_[p].grantSingle(
                      static_cast<unsigned>(std::countr_zero(ready)))
            : (ready & ranked_[p]) == 0
                ? saLocalArb_[p].pickEqual(ReqMask(ready))
                : saLocalArb_[p].pick(ReqMask(ready), [&](unsigned v) {
                      return vcs_[base + v].rank;
                  });
        const auto w = static_cast<unsigned>(winner);
        if (contested && check_ && check_->wantsArbitration()) {
            std::vector<const Packet *> cands(nvc_, nullptr);
            forEachBit(ready, [&](unsigned v) {
                cands[v] = frontPacket(base + v);
            });
            check_->onArbGrant(id_, "sa-local", cands, w, now);
        }
        const VcMeta &m = vcs_[base + w];
        localVc[p] = w;
        localRank[p] = m.rank;
        rankedPorts |= std::uint32_t{m.rank != 0} << p;
        portsFor[m.outPort] |= bit(p);
        outs |= bit(m.outPort);
    }

    // Global stage: per output port, in port order, pick among the
    // input-port winners.
    forEachBit(outs, [&](unsigned op) {
        const std::uint32_t ports = portsFor[op];
        const auto count = static_cast<unsigned>(std::popcount(ports));
        const int winner =
            count == 1
                ? saGlobalArb_[op].grantSingle(
                      static_cast<unsigned>(std::countr_zero(ports)))
            : (ports & rankedPorts) == 0
                ? saGlobalArb_[op].pickEqual(ReqMask(ports))
                : saGlobalArb_[op].pick(
                      ReqMask(ports),
                      [&](unsigned p) { return localRank[p]; });
        const auto p = static_cast<unsigned>(winner);
        if (count > 1 && check_ && check_->wantsArbitration()) {
            std::vector<const Packet *> cands(NumPorts, nullptr);
            forEachBit(ports, [&](unsigned pp) {
                cands[pp] = frontPacket(pp * nvc_ + localVc[pp]);
            });
            check_->onArbGrant(id_, "sa-global", cands, p, now);
        }
        stats_.saConflictLosses += count - 1;
        traverse(op, p, localVc[p], localRank[p], now);
    });
}

void
Router::traverse(unsigned op, unsigned p, unsigned v, std::int64_t rank,
                 Cycle now)
{
    const unsigned i = p * nvc_ + v;
    VcMeta &m = vcs_[i];
    Flit out = std::move(frontSlot(i).flit);
    m.head = m.head + 1 == depth_ ? 0 : m.head + 1;
    --m.count;
    --buffered_;
    if (m.count > 0)
        frontChanged(i, frontSlot(i).arrival);
    else
        nonEmpty_[p] &= ~bit(v);
    if (check_)
        check_->onVcPop(id_, p, v, out, now);

    if (!outLinks_[op])
        ocor_panic("router %u: traversal to unattached port %u", id_,
                   op);
    const unsigned ovc = m.outVc;
    out.vc = ovc;
    const bool isTail = out.isTail();
    // Trace before the send: sendFlit takes the flit, and with it the
    // packet reference.
    if (trace_ && out.isHead())
        trace_->record(TraceCat::Noc, TraceEv::SaGrant, now, id_,
                       invalidThread, 0, out.pkt->id,
                       static_cast<std::uint32_t>(out.pkt->type),
                       static_cast<std::uint32_t>(rank));
    outLinks_[op]->sendFlit(std::move(out), now);
    if (--credits_[op * nvc_ + ovc] == 0)
        creditOk_[p] &= ~bit(v);
    if (check_)
        check_->onTraversal(id_, op, ovc, now);

    // Return the freed buffer slot upstream.
    if (inLinks_[p])
        inLinks_[p]->sendCredit(v, now);

    ++stats_.saGrants;
    ++stats_.flitsRouted;
    if (m.lock)
        ++stats_.lockFlitsRouted;

    if (isTail) {
        freeOutVcs_[op] |= bit(ovc); // VC reusable by the next packet
        m.outVc = noVc;
        creditOk_[p] &= ~bit(v);
        // Anything left in the FIFO is the next packet, so its head
        // is now at the front awaiting VA.
        if (m.count > 0 && frontSlot(i).flit.isHead())
            headAtFront(i, frontSlot(i).flit);
    }
}

void
Router::tick(Cycle now)
{
    if (dueAt_ <= now)
        drainCredits(now);
    if (buffered_ == 0)
        return; // nothing to route this cycle
    // Each stage is skipped outright when its masks hold no work (VA
    // runs first: a head it grants may traverse this cycle).
    std::uint32_t heads = 0;
    for (unsigned p = 0; p < NumPorts; ++p)
        heads |= freshHead_[p] | vaCount_[p];
    if (heads != 0)
        vcAllocation(now);
    std::uint32_t owners = 0;
    for (unsigned p = 0; p < NumPorts; ++p)
        owners |= creditOk_[p] & nonEmpty_[p];
    if (owners != 0)
        switchAllocation(now);
}

} // namespace ocor
