#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "os/lock_ledger.hh"

namespace ocor
{

System::System(const SystemConfig &cfg, std::vector<Program> programs,
               const BgTrafficConfig &bg)
    : cfg_(cfg), amap_(cfg.mesh, cfg.mem.lineBytes)
{
    cfg_.validate();
    if (programs.size() != cfg_.numThreads)
        ocor_fatal("System: %zu programs for %u threads",
                   programs.size(), cfg_.numThreads);

    network_ = std::make_unique<Network>(cfg_.mesh, cfg_.noc,
                                         cfg_.ocor);

    SendFn send = [this](const PacketPtr &pkt, Cycle now) {
        network_->send(pkt, now);
    };

    const unsigned nodes = cfg_.mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        l1s_.push_back(std::make_unique<L1Cache>(n, amap_, cfg_.mem,
                                                 send));
        l2s_.push_back(std::make_unique<L2Directory>(n, amap_,
                                                     cfg_.mem, send));
        lockMgrs_.push_back(
            std::make_unique<LockManager>(n, cfg_.os, send));
        network_->setNodeSink(n,
            [this, n](const PacketPtr &pkt, Cycle now) {
                dispatch(n, pkt, now);
            });
    }

    mcs_.reserve(amap_.mcNodes().size());
    for (NodeId n : amap_.mcNodes())
        mcs_.push_back(
            std::make_unique<MemController>(n, cfg_.mem, send));

    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        auto pcb = std::make_unique<Pcb>();
        pcb->tid = t;
        pcb->node = t; // thread t pinned to node t
        pcbs_.push_back(std::move(pcb));

        qspins_.push_back(std::make_unique<QSpinlock>(
            *pcbs_[t], cfg_.ocor, cfg_.os, amap_, send));

        cores_.push_back(std::make_unique<Core>(
            *pcbs_[t], *l1s_[t], *qspins_[t], std::move(programs[t]),
            bg, cfg_.seed + 7919 * (t + 1), cfg_.lockRegionBase,
            cfg_.mem.lineBytes));
    }

    if (cfg_.trace.enabled()) {
        tracer_ = std::make_unique<Tracer>(cfg_.trace);
        network_->setTracer(tracer_.get());
        for (auto &lm : lockMgrs_)
            lm->setTracer(tracer_.get());
        for (auto &qs : qspins_)
            qs->setTracer(tracer_.get());
    }

    if (cfg_.check.enabled()) {
        checks_ = std::make_unique<CheckerRegistry>(
            cfg_.check, cfg_.ocor, cfg_.noc.vcDepth);
        checks_->attachSystem(this);
        checks_->attachTracer(tracer_.get());
        network_->setChecker(checks_.get());
        for (auto &lm : lockMgrs_)
            lm->setChecker(checks_.get());
        for (auto &qs : qspins_)
            qs->setChecker(checks_.get());
    }
}

void
System::setLedger(LockLedger *l)
{
    for (auto &qs : qspins_)
        qs->setLedger(l);
    for (auto &lm : lockMgrs_)
        lm->setLedger(l);
}

void
System::registerStats(StatsRegistry &reg, const std::string &prefix)
{
    const NetworkStats &net = network_->stats();
    reg.addScalar(prefix + ".net.packets_delivered",
                  &net.packetsDelivered);
    reg.addScalar(prefix + ".net.lock_packets_delivered",
                  &net.lockPacketsDelivered);
    reg.addSample(prefix + ".net.packet_latency", &net.packetLatency);
    reg.addSample(prefix + ".net.lock_packet_latency",
                  &net.lockPacketLatency);
    reg.addSample(prefix + ".net.data_packet_latency",
                  &net.dataPacketLatency);
    reg.addHistogram(prefix + ".net.packet_latency_hist",
                     &net.packetLatencyHist);
    reg.addHistogram(prefix + ".net.lock_packet_latency_hist",
                     &net.lockPacketLatencyHist);
    reg.addScalarFn(prefix + ".net.flits_injected", [this]() {
        return static_cast<double>(network_->totalFlitsInjected());
    });

    const unsigned nodes = cfg_.mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        const std::string r = prefix + ".router" + std::to_string(n);
        const RouterStats &rs = network_->router(n).stats();
        reg.addScalar(r + ".flits_routed", &rs.flitsRouted);
        reg.addScalar(r + ".lock_flits_routed", &rs.lockFlitsRouted);
        reg.addScalar(r + ".va_grants", &rs.vaGrants);
        reg.addScalar(r + ".sa_grants", &rs.saGrants);
        reg.addScalar(r + ".sa_conflict_losses",
                      &rs.saConflictLosses);

        const std::string i = prefix + ".ni" + std::to_string(n);
        const NiStats &ns = network_->ni(n).stats();
        reg.addScalar(i + ".packets_injected", &ns.packetsInjected);
        reg.addScalar(i + ".flits_injected", &ns.flitsInjected);
        reg.addScalar(i + ".packets_ejected", &ns.packetsEjected);
        reg.addScalar(i + ".lock_packets_injected",
                      &ns.lockPacketsInjected);
        reg.addScalar(i + ".inject_queue_peak", &ns.injectQueuePeak);

        const std::string l2 = prefix + ".l2" + std::to_string(n);
        const L2Stats &ls = l2s_[n]->stats();
        reg.addScalar(l2 + ".get_s", &ls.getS);
        reg.addScalar(l2 + ".get_m", &ls.getM);
        reg.addScalar(l2 + ".invs_sent", &ls.invsSent);
        reg.addScalar(l2 + ".fetches_sent", &ls.fetchesSent);
        reg.addScalar(l2 + ".mem_reads", &ls.memReads);
        reg.addScalar(l2 + ".mem_writes", &ls.memWrites);
        reg.addScalar(l2 + ".queued_requests", &ls.queuedRequests);
        reg.addScalar(l2 + ".stale_acks", &ls.staleAcks);
        reg.addScalar(l2 + ".evictions", &ls.l2Evictions);

        const std::string m = prefix + ".lockmgr" + std::to_string(n);
        const LockMgrStats &ms = lockMgrs_[n]->stats();
        reg.addScalar(m + ".tries", &ms.tries);
        reg.addScalar(m + ".grants", &ms.grants);
        reg.addScalar(m + ".fails", &ms.fails);
        reg.addScalar(m + ".releases", &ms.releases);
        reg.addScalar(m + ".futex_waits", &ms.futexWaits);
        reg.addScalar(m + ".immediate_wakes", &ms.immediateWakes);
        reg.addScalar(m + ".wakes", &ms.wakes);
        reg.addScalar(m + ".notifies", &ms.notifies);
        reg.addScalar(m + ".stray_releases", &ms.strayReleases);
        reg.addSample(m + ".handover_latency", &ms.handoverLatency);
        reg.addHistogram(m + ".handover_latency_hist",
                         &ms.handoverLatencyHist);
    }

    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        const std::string p = prefix + ".thread" + std::to_string(t);
        const ThreadCounters &tc = pcbs_[t]->counters;
        reg.addScalar(p + ".compute_cycles", &tc.computeCycles);
        reg.addScalar(p + ".cs_cycles", &tc.csCycles);
        reg.addScalar(p + ".blocked_held_cycles",
                      &tc.blockedHeldCycles);
        reg.addScalar(p + ".blocked_idle_cycles",
                      &tc.blockedIdleCycles);
        reg.addScalar(p + ".acquisitions", &tc.acquisitions);
        reg.addScalar(p + ".spin_wins", &tc.spinWins);
        reg.addScalar(p + ".sleep_wins", &tc.sleepWins);
        reg.addScalar(p + ".retries", &tc.retries);
        reg.addScalar(p + ".sleeps", &tc.sleeps);
        reg.addScalar(p + ".coh_transfer_cycles",
                      &tc.cohTransferCycles);
        reg.addScalar(p + ".coh_arbitration_cycles",
                      &tc.cohArbitrationCycles);
        reg.addScalar(p + ".coh_backoff_cycles",
                      &tc.cohBackoffCycles);
        reg.addScalar(p + ".coh_sleep_cycles", &tc.cohSleepCycles);
        reg.addScalar(p + ".coh_grant_gap_cycles",
                      &tc.cohGrantGapCycles);
    }

    if (tracer_) {
        reg.addScalarFn(prefix + ".trace.emitted", [this]() {
            return static_cast<double>(tracer_->emitted());
        });
        reg.addScalarFn(prefix + ".trace.dropped", [this]() {
            return static_cast<double>(tracer_->dropped());
        });
    }

    if (checks_) {
        reg.addScalarFn(prefix + ".check.violations", [this]() {
            return static_cast<double>(checks_->violations());
        });
    }
}

void
System::dispatch(NodeId node, const PacketPtr &pkt, Cycle now)
{
    switch (pkt->type) {
      // Home-side coherence + memory fills.
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutM:
      case MsgType::PutE:
      case MsgType::InvAck:
      case MsgType::FetchResp:
      case MsgType::Unblock:
      case MsgType::MemResp:
        l2s_[node]->handle(pkt, now);
        break;

      // L1-side coherence.
      case MsgType::Inv:
      case MsgType::Fetch:
      case MsgType::Data:
      case MsgType::DataExcl:
      case MsgType::WbAck:
        l1s_[node]->handle(pkt, now);
        break;

      // Off-chip memory.
      case MsgType::MemRead:
      case MsgType::MemWrite: {
        const std::vector<NodeId> &mc_nodes = amap_.mcNodes();
        auto it = std::lower_bound(mc_nodes.begin(), mc_nodes.end(),
                                   node);
        if (it == mc_nodes.end() || *it != node)
            ocor_panic("node %u has no memory controller", node);
        mcs_[static_cast<std::size_t>(it - mc_nodes.begin())]->handle(
            pkt, now);
        break;
      }

      // Lock protocol, home side.
      case MsgType::LockTry:
      case MsgType::LockRelease:
      case MsgType::FutexWait:
      case MsgType::FutexWake:
        lockMgrs_[node]->handle(pkt, now);
        break;

      // Lock protocol, thread side.
      case MsgType::LockGrant:
      case MsgType::LockFail:
      case MsgType::LockFreeNotify:
      case MsgType::WakeNotify:
        if (pkt->thread >= qspins_.size())
            ocor_panic("lock response for unknown thread %u",
                       pkt->thread);
        qspins_[pkt->thread]->handle(pkt, now);
        break;

      default:
        ocor_panic("dispatch: unhandled message %s",
                   msgTypeName(pkt->type));
    }
}

void
System::tick(Cycle now)
{
    if (netWake_ <= now)
        network_->tick(now);
    for (auto &l1 : l1s_)
        if (l1->nextWake() <= now)
            l1->tick(now);
    for (auto &l2 : l2s_)
        if (l2->nextWake() <= now)
            l2->tick(now);
    for (auto &lm : lockMgrs_)
        if (lm->nextWake() <= now)
            lm->tick(now);
    for (auto &mc : mcs_)
        if (mc->nextWake() <= now)
            mc->tick(now);
    for (auto &qs : qspins_)
        if (qs->nextWake() <= now)
            qs->tick(now);
    for (auto &c : cores_)
        if (c->nextWake() <= now)
            c->tick(now);
    // All sends of this cycle have been queued by now (NI inject
    // queues stamp ready = now + 1), so this scan sees them.
    netWake_ = network_->nextWake(now);
}

Cycle
System::nextWake(Cycle now) const
{
    Cycle w = netWake_ <= now ? network_->nextWake(now) : netWake_;
    for (const auto &l1 : l1s_)
        w = std::min(w, l1->nextWake());
    for (const auto &l2 : l2s_)
        w = std::min(w, l2->nextWake());
    for (const auto &lm : lockMgrs_)
        w = std::min(w, lm->nextWake());
    for (const auto &mc : mcs_)
        w = std::min(w, mc->nextWake());
    for (const auto &qs : qspins_)
        w = std::min(w, qs->nextWake());
    for (const auto &c : cores_)
        w = std::min(w, c->nextWake());
    return w;
}

bool
System::allFinished() const
{
    // Finishing is monotone per core, so resume the scan where it
    // last stopped; the common not-finished case is one check.
    const unsigned n = static_cast<unsigned>(cores_.size());
    while (firstUnfinished_ < n &&
           cores_[firstUnfinished_]->finished())
        ++firstUnfinished_;
    return firstUnfinished_ == n;
}

bool
System::drained() const
{
    if (!network_->idle())
        return false;
    for (const auto &l1 : l1s_)
        if (!l1->idle())
            return false;
    for (const auto &l2 : l2s_)
        if (!l2->idle())
            return false;
    for (const auto &lm : lockMgrs_)
        if (!lm->idle())
            return false;
    for (const auto &mc : mcs_)
        if (!mc->idle())
            return false;
    return true;
}

bool
System::lockHeld(Addr lock_word) const
{
    NodeId home = amap_.homeOf(lock_word);
    return lockMgrs_[home]->heldNow(lock_word);
}

bool
System::lockHolderInCs(Addr lock_word) const
{
    NodeId home = amap_.homeOf(lock_word);
    ThreadId holder = lockMgrs_[home]->holderOf(lock_word);
    if (holder == invalidThread || holder >= pcbs_.size())
        return false;
    return pcbs_[holder]->state == ThreadState::InCS;
}

std::size_t
System::lockQueueLength(Addr lock_word) const
{
    NodeId home = amap_.homeOf(lock_word);
    return lockMgrs_[home]->queueLength(lock_word);
}

} // namespace ocor
