#include "mem/l1_cache.hh"

#include <utility>

#include "common/log.hh"

namespace ocor
{

L1Cache::L1Cache(NodeId node, const AddressMap &amap,
                 const MemParams &params, SendFn send)
    : node_(node), amap_(amap), params_(params),
      send_(std::move(send)),
      array_(params.l1Sets, params.l1Ways, params.lineBytes),
      mshrs_(params.l1Mshrs)
{}

unsigned
L1Cache::findMshr(Addr line) const
{
    unsigned i = 0;
    while (i < numMshrs_ && mshrs_[i].line != line)
        ++i;
    return i;
}

CoherState
L1Cache::lineState(Addr addr) const
{
    const CacheLine *l = array_.find(amap_.lineAddr(addr));
    return l ? l->state : CoherState::I;
}

bool
L1Cache::request(Addr addr, bool write, Cycle now, CompletionFn done)
{
    const Addr line = amap_.lineAddr(addr);
    ++useTick_;

    CacheLine *l = array_.find(line);
    if (l) {
        bool read_hit = !write && l->state != CoherState::I;
        bool write_hit = write && (l->state == CoherState::M ||
                                   l->state == CoherState::E);
        if (read_hit || write_hit) {
            if (write)
                l->state = CoherState::M; // silent E -> M upgrade
            array_.touch(l, useTick_);
            ++stats_.hits;
            delayed_.emplace_back(now + params_.l1Latency,
                                  std::move(done));
            return true;
        }
        if (write && (l->state == CoherState::S ||
                      l->state == CoherState::O)) {
            // Upgrade path: drop the stale copy and reissue as a
            // full GetM below.
            l->state = CoherState::I;
        }
    }

    const unsigned i = findMshr(line);
    if (i < numMshrs_) {
        // Coalesce reads under any pending miss, and writes under a
        // pending GetM; a write under a pending GetS must retry.
        if (write && !mshrs_[i].wantWrite) {
            ++stats_.mshrRejects;
            return false;
        }
        mshrs_[i].waiters.push_back(std::move(done));
        return true;
    }

    if (numMshrs_ >= params_.l1Mshrs) {
        ++stats_.mshrRejects;
        return false;
    }

    ++stats_.misses;
    Mshr &m = mshrs_[numMshrs_++];
    m.line = line;
    m.wantWrite = write;
    m.waiters.push_back(std::move(done));

    auto pkt = makePacket(write ? MsgType::GetM : MsgType::GetS,
                          node_, amap_.homeOf(line), line);
    pkt->requester = node_;
    send_(pkt, now);
    return true;
}

void
L1Cache::evictFor(Addr line, Cycle now)
{
    CacheLine *victim = array_.victimFor(line);
    if (victim->state == CoherState::I)
        return;

    ++stats_.evictions;
    const Addr vline = victim->addr;
    switch (victim->state) {
      case CoherState::M:
      case CoherState::O: {
        auto wb = makePacket(MsgType::PutM, node_,
                             amap_.homeOf(vline), vline);
        send_(wb, now);
        ++stats_.writebacks;
        break;
      }
      case CoherState::E: {
        auto pe = makePacket(MsgType::PutE, node_,
                             amap_.homeOf(vline), vline);
        send_(pe, now);
        break;
      }
      default:
        break; // S: silent drop; the directory tolerates stale sharers
    }
    victim->state = CoherState::I;
}

void
L1Cache::fillLine(Addr line, CoherState state, Cycle now)
{
    evictFor(line, now);
    CacheLine *slot = array_.victimFor(line);
    array_.fill(slot, line, state, ++useTick_);
}

void
L1Cache::handle(const PacketPtr &pkt, Cycle now)
{
    const Addr line = amap_.lineAddr(pkt->addr);

    switch (pkt->type) {
      case MsgType::Data:
      case MsgType::DataExcl: {
        const unsigned i = findMshr(line);
        if (i == numMshrs_) {
            ocor_warn("L1 %u: unsolicited %s for %llx", node_,
                      msgTypeName(pkt->type),
                      static_cast<unsigned long long>(line));
            return;
        }
        CoherState st;
        if (pkt->type == MsgType::Data)
            st = CoherState::S;
        else
            st = mshrs_[i].wantWrite ? CoherState::M : CoherState::E;
        fillLine(line, st, now);
        // Take the waiters (leaving the spare storage in the slot) and
        // free the MSHR before they run: a waiter may miss again.
        std::vector<CompletionFn> waiters;
        waiters.swap(firing_);
        waiters.swap(mshrs_[i].waiters);
        if (i != --numMshrs_)
            std::swap(mshrs_[i], mshrs_[numMshrs_]);
        // Close the directory transaction: the home keeps the line
        // busy until this fill confirmation so later requests cannot
        // race ahead of the grant in the network.
        auto unb = makePacket(MsgType::Unblock, node_, pkt->src,
                              line);
        send_(unb, now);
        for (auto &w : waiters)
            w(now);
        waiters.clear();
        firing_.swap(waiters);
        break;
      }
      case MsgType::Inv: {
        ++stats_.invsReceived;
        if (CacheLine *l = array_.find(line)) {
            l->state = CoherState::I;
        }
        auto ack = makePacket(MsgType::InvAck, node_, pkt->src, line);
        ack->aux = pkt->aux; // echo the transaction tag
        send_(ack, now);
        break;
      }
      case MsgType::Fetch: {
        ++stats_.fetchesReceived;
        auto resp = makePacket(MsgType::FetchResp, node_, pkt->src,
                               line);
        resp->aux = pkt->aux; // echo tag + invalidate flag
        CacheLine *l = array_.find(line);
        if (l && l->state != CoherState::I &&
            l->state != CoherState::S) {
            if (pkt->aux & 1) {  // invalidate (GetM at home)
                l->state = CoherState::I;
            } else {             // downgrade (GetS at home)
                l->state = CoherState::O;
            }
        } else {
            resp->aux |= 2; // no data: raced with our own eviction
        }
        send_(resp, now);
        break;
      }
      case MsgType::WbAck:
        break; // writebacks are fire-and-forget in this model
      default:
        ocor_panic("L1 %u: unexpected message %s", node_,
                   msgTypeName(pkt->type));
    }
}

void
L1Cache::tick(Cycle now)
{
    while (!delayed_.empty() && delayed_.front().first <= now) {
        auto fn = std::move(delayed_.front().second);
        delayed_.pop_front();
        fn(now);
    }
}

} // namespace ocor
