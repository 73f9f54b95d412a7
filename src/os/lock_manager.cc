#include "os/lock_manager.hh"

#include <algorithm>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "os/lock_ledger.hh"

namespace ocor
{

LockManager::LockManager(NodeId node, const OsParams &params,
                         SendFn send)
    : node_(node), params_(params), send_(std::move(send))
{}

bool
LockManager::heldNow(Addr lock_word) const
{
    auto it = locks_.find(lock_word);
    return it != locks_.end() && it->second.core.held;
}

ThreadId
LockManager::holderOf(Addr lock_word) const
{
    auto it = locks_.find(lock_word);
    return it == locks_.end() ? invalidThread
                              : it->second.core.holder;
}

std::size_t
LockManager::queueLength(Addr lock_word) const
{
    auto it = locks_.find(lock_word);
    return it == locks_.end() ? 0 : it->second.core.waitQueue.size();
}

std::size_t
LockManager::pollerCount(Addr lock_word) const
{
    auto it = locks_.find(lock_word);
    return it == locks_.end() ? 0 : it->second.core.pollers.size();
}

void
LockManager::handle(const PacketPtr &pkt, Cycle now)
{
    delayed_.emplace_back(now + params_.homeLatency, pkt);
}

void
LockManager::tick(Cycle now)
{
    while (!delayed_.empty() && delayed_.front().first <= now) {
        PacketPtr pkt = delayed_.front().second;
        delayed_.pop_front();
        process(pkt, now);
    }
    while (!retries_.empty() && retries_.front().first <= now) {
        PacketPtr pkt = retries_.front().second;
        retries_.pop_front();
        process(pkt, now);
    }
}

void
LockManager::noteGrant(LockState &lock, Addr addr, ThreadId winner,
                       Cycle now)
{
    if (lock.lastRelease == neverCycle)
        return; // first-ever grant: no preceding release to measure
    Cycle gap = now - lock.lastRelease;
    lock.lastRelease = neverCycle; // one release -> one sample
    stats_.handoverLatency.sample(static_cast<double>(gap));
    stats_.handoverLatencyHist.sample(static_cast<double>(gap));
    if (ledger_)
        ledger_->noteGrantGap(addr, gap);
    if (trace_)
        trace_->record(TraceCat::Lock, TraceEv::LockHandover, now,
                       node_, winner, addr, 0, 0,
                       static_cast<std::uint32_t>(gap));
}

void
LockManager::process(const PacketPtr &pkt, Cycle now)
{
    LockState &lock = locks_[pkt->addr];

    const proto::MsgKind kind = [&] {
        switch (pkt->type) {
          case MsgType::LockTry:     return proto::MsgKind::LockTry;
          case MsgType::LockRelease:
              return proto::MsgKind::LockRelease;
          case MsgType::FutexWait:   return proto::MsgKind::FutexWait;
          case MsgType::FutexWake:   return proto::MsgKind::FutexWake;
          default:
            ocor_panic("LockManager %u: unexpected message %s", node_,
                       msgTypeName(pkt->type));
        }
    }();

    // The protocol decision itself is the pure step shared with the
    // model checker (DESIGN.md §15); everything below maps its
    // outcome onto stats, traces, checker hooks and real packets.
    proto::HomeResult res =
        proto::homeStep(lock.core, kind, pkt->thread, pkt->src);

    switch (res.outcome) {
      case proto::HomeOutcome::Granted:
        ++stats_.tries;
        ++stats_.grants;
        noteGrant(lock, pkt->addr, pkt->thread, now);
        break;
      case proto::HomeOutcome::Failed:
        ++stats_.tries;
        ++stats_.fails;
        break;
      case proto::HomeOutcome::Released:
        ++stats_.releases;
        lock.lastRelease = now;
        break;
      case proto::HomeOutcome::StrayRelease:
        // Only a buggy client releases a lock it does not hold.
        ++stats_.strayReleases;
        ocor_warn("LockManager %u: stray release of %llx by t%u "
                  "(held=%d holder=%u) absorbed", node_,
                  static_cast<unsigned long long>(pkt->addr),
                  pkt->thread, lock.core.held ? 1 : 0,
                  lock.core.holder);
        break;
      case proto::HomeOutcome::Queued:
        ++stats_.futexWaits;
        break;
      case proto::HomeOutcome::ImmediateWake:
        ++stats_.futexWaits;
        ++stats_.immediateWakes;
        noteGrant(lock, pkt->addr, pkt->thread, now);
        break;
      case proto::HomeOutcome::Woken:
        ++stats_.wakes;
        if (!res.sends.empty())
            noteGrant(lock, pkt->addr, res.sends.front().thread,
                      now);
        break;
      case proto::HomeOutcome::WakeNoop:
      case proto::HomeOutcome::NumOutcomes:
        break;
    }

    for (const proto::HomeSend &s : res.sends) {
        switch (s.kind) {
          case proto::MsgKind::LockGrant:
          case proto::MsgKind::LockFail: {
            auto resp = makePacket(s.kind == proto::MsgKind::LockGrant
                                       ? MsgType::LockGrant
                                       : MsgType::LockFail,
                                   node_, s.node, pkt->addr);
            resp->thread = s.thread;
            // Responses inherit the request's urgency so a grant is
            // not stuck behind background traffic on the way back.
            resp->priority = pkt->priority;
            send_(resp, now);
            break;
          }
          case proto::MsgKind::LockFreeNotify: {
            auto inv = makePacket(MsgType::LockFreeNotify, node_,
                                  s.node, pkt->addr);
            inv->thread = s.thread;
            send_(inv, now);
            ++stats_.notifies;
            break;
          }
          case proto::MsgKind::WakeNotify: {
            auto wake = makePacket(MsgType::WakeNotify, node_,
                                   s.node, pkt->addr);
            wake->thread = s.thread;
            wake->priority = pkt->priority; // wakeup class (lowest)
            send_(wake, now);
            if (check_)
                check_->onWakeSent(pkt->addr, s.thread, now);
            if (trace_)
                trace_->record(
                    TraceCat::Lock, TraceEv::WakeupSent, now, node_,
                    s.thread, pkt->addr, 0,
                    static_cast<std::uint32_t>(
                        lock.core.waitQueue.size()));
            break;
          }
          default:
            ocor_panic("LockManager %u: homeStep emitted %s", node_,
                       proto::msgKindName(s.kind));
        }
    }

    if (res.scheduleWakeRetry) {
        // Liveness safety net (see OsParams::wakeRetryDelay).
        auto retry = makePacket(MsgType::FutexWake, node_, node_,
                                pkt->addr);
        retries_.emplace_back(now + params_.wakeRetryDelay, retry);
    }
}

} // namespace ocor
