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
    inLinks_[port] = in_link;
    outLinks_[port] = out_link;
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
    freshHead_[i / nvc_] |= bit(i % nvc_);
}

void
Router::acceptCredits(unsigned p, Cycle now)
{
    // Credits returning from downstream.
    for (unsigned vc : outLinks_[p]->takeCredits(now)) {
        if (vc >= nvc_)
            ocor_panic("router %u: bad credit vc %u", id_, vc);
        const unsigned o = p * nvc_ + vc;
        if (credits_[o] >= depth_)
            ocor_panic("router %u: credit overflow", id_);
        // A held VC regaining its first slot makes its owner ready.
        if (credits_[o]++ == 0 && (freeOutVcs_[p] & bit(vc)) == 0)
            creditOk_[owner_[o] / nvc_] |= bit(owner_[o] % nvc_);
        if (check_)
            check_->onCreditReturn(id_, p, vc, now);
    }
}

void
Router::acceptFlits(unsigned p, Cycle now)
{
    // Flits arriving from upstream.
    while (auto flit = inLinks_[p]->takeFlit(now)) {
        const unsigned v = flit->vc;
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
        s.flit = std::move(*flit);
        s.arrival = now;
        if (m.count++ == 0) {
            nonEmpty_[p] |= bit(v);
            frontChanged(i, now);
            // An empty VC cannot be mid-packet while unallocated: the
            // previous tail freed it, so a head here starts the next
            // packet.
            if (s.flit.isHead())
                headAtFront(i, s.flit);
        }
        ++buffered_;
        if (check_)
            check_->onVcPush(id_, p, v, s.flit, now);
    }
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
        // arbiter's pointer rotates ties.
        while (vaCount_[op] > 0 && freeOutVcs_[op] != 0) {
            const auto w = static_cast<unsigned>(vaArb_[op].pick(
                vaReq_[op], [&](unsigned i) { return vcs_[i].rank; }));
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
        // Lone ready VC: bypass the rank arbitration (pointer still
        // advances identically).
        const int winner =
            !contested
                ? saLocalArb_[p].grantSingle(
                      static_cast<unsigned>(std::countr_zero(ready)))
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
    // Trace before the send: a fault drop inside sendFlit destroys the
    // flit, which may hold the packet's last reference.
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
    for (unsigned p = 0; p < NumPorts; ++p) {
        if (outLinks_[p] && outLinks_[p]->creditDue(now))
            acceptCredits(p, now);
        if (inLinks_[p] && inLinks_[p]->flitDue(now))
            acceptFlits(p, now);
    }
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
