#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <system_error>
#include <utility>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "os/lock_ledger.hh"

namespace ocor
{

namespace
{

/** How long a waiting thread spins before it sleeps: longer than a
 * phase takes, so a run with a CPU per strip stays out of the kernel
 * while it ticks. */
constexpr std::chrono::microseconds kSpinTime{50};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Wait until ready(@p a) holds and return the value that satisfied
 * it. Spin, calling @p idle() every 64 polls, for kSpinTime; then
 * block in the kernel until @p a changes (its changer calls
 * notify_all), so a host with more runnable threads than CPUs gives
 * the CPU to a thread with work.
 */
template <class Ready, class Idle>
unsigned
awaitChange(const std::atomic<unsigned> &a, Ready ready, Idle idle)
{
    using clock = std::chrono::steady_clock;
    clock::time_point spinUntil{};
    for (unsigned polls = 0;; ++polls) {
        const unsigned v = a.load(std::memory_order_acquire);
        if (ready(v))
            return v;
        if (polls % 64 != 0) {
            cpuRelax();
        } else if (polls == 0) {
            spinUntil = clock::now() + kSpinTime;
        } else {
            idle();
            if (clock::now() >= spinUntil)
                a.wait(v, std::memory_order_acquire);
        }
    }
}

} // namespace

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

    layoutStrips(stripCount());
}

System::~System() { stopWorkers(); }

void
System::setLedger(LockLedger *l)
{
    for (auto &qs : qspins_)
        qs->setLedger(l);
    for (auto &lm : lockMgrs_)
        lm->setLedger(l);
    ledgerAttached_ = l != nullptr;
    layoutStrips(stripCount());
}

void
System::testPinStrips(unsigned n)
{
    pinnedStrips_ = n;
    layoutStrips(stripCount());
}

unsigned
System::stripCount() const
{
    if (tracer_ || checks_ || ledgerAttached_)
        return 1;
    const unsigned rows = cfg_.mesh.height;
    if (pinnedStrips_ > 0)
        return std::min(pinnedStrips_, rows);
    const unsigned bands = std::min(rows, cfg_.mesh.numNodes() / 16);
    if (bands <= 1)
        return 1;
    // The CPUs this run may take: its share of the pool it runs on.
    return std::max(1u, std::min(bands, ThreadPool::defaultConcurrency() /
                                            ThreadPool::enclosingSize()));
}

void
System::layoutStrips(unsigned n)
{
    stopWorkers();
    const MeshShape &mesh = cfg_.mesh;
    const std::vector<NodeId> &mc_nodes = amap_.mcNodes();
    auto mcIndex = [&](NodeId node) {
        return static_cast<unsigned>(
            std::lower_bound(mc_nodes.begin(), mc_nodes.end(), node) -
            mc_nodes.begin());
    };
    strips_ = std::vector<Strip>(n);
    std::vector<unsigned> stripOf(mesh.numNodes());
    // The next cycle's router phase claims from its predecessor stamp.
    const unsigned stamp = 2 * epoch_.load(std::memory_order_relaxed) + 2;
    for (unsigned i = 0; i < n; ++i) {
        Strip &s = strips_[i];
        s.claimed.store(stamp, std::memory_order_relaxed);
        s.index = i;
        s.first = i * mesh.height / n * mesh.width;
        s.last = (i + 1) * mesh.height / n * mesh.width;
        s.mcFirst = mcIndex(s.first);
        s.mcLast = mcIndex(s.last);
        s.threadFirst = std::min(s.first, numThreads());
        s.threadLast = std::min(s.last, numThreads());
        std::fill(stripOf.begin() + s.first, stripOf.begin() + s.last, i);
    }
    network_->partition(std::move(stripOf));
}

bool
System::startWorkers()
{
    try {
        for (unsigned i = 1; i < numStrips(); ++i)
            workers_.emplace_back(&System::workerLoop, this, i,
                                  epoch_.load(std::memory_order_relaxed),
                                  currentRunLabel());
    } catch (const std::system_error &) {
        layoutStrips(1); // stops the workers that did start
        return false;
    }
    return true;
}

void
System::stopWorkers()
{
    if (workers_.empty())
        return;
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    stop_.store(false, std::memory_order_relaxed);
}

void
System::workerLoop(unsigned home, unsigned epoch,
                   const std::string &label)
{
    // A panic on this worker names the caller's run.
    RunLabelScope scope(label);
    for (;;) {
        epoch = awaitChange(
            epoch_, [&](unsigned e) { return e != epoch; }, [] {});
        if (stop_.load(std::memory_order_relaxed))
            return;
        runCycle(home, epoch);
    }
}

void
System::runCycle(unsigned home, unsigned epoch)
{
    const unsigned n = numStrips();
    const unsigned routers = 2 * epoch + 1;
    const unsigned nodes = routers + 1;
    claim(strips_[home], routers, &System::tickRouters, routed_);
    // The node phase starts once every router phase has ended: the
    // deferred links' slots fill in the one and land in the other.
    awaitChange(
        routed_, [&](unsigned v) { return v == n; },
        [&] { claimAny(routers, &System::tickRouters, routed_); });
    claim(strips_[home], nodes, &System::tickNodes, settled_);
}

void
System::claim(Strip &s, unsigned stamp,
              void (System::*phase)(Strip &, Cycle),
              std::atomic<unsigned> &done)
{
    // A claim needs the previous phase's stamp, so a thread still in
    // an earlier cycle claims nothing.
    unsigned prev = stamp - 1;
    if (s.claimed.load(std::memory_order_relaxed) != prev ||
        !s.claimed.compare_exchange_strong(prev, stamp,
                                           std::memory_order_acq_rel))
        return;
    try {
        (this->*phase)(s, cycle_.load(std::memory_order_relaxed));
    } catch (...) {
        // Count the strip anyway, so no thread waits for it.
        std::lock_guard<std::mutex> lk(failureMu_);
        if (!failure_)
            failure_ = std::current_exception();
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == numStrips())
        done.notify_all();
}

void
System::claimAny(unsigned stamp, void (System::*phase)(Strip &, Cycle),
                 std::atomic<unsigned> &done)
{
    for (Strip &s : strips_)
        claim(s, stamp, phase, done);
}

void
System::registerStats(StatsRegistry &reg, const std::string &prefix)
{
    // Deliveries are counted per node and merged when read.
    const Network *net = network_.get();
    reg.addScalarFn(prefix + ".net.packets_delivered", [net]() {
        return static_cast<double>(net->stats().packetsDelivered);
    });
    reg.addScalarFn(prefix + ".net.lock_packets_delivered", [net]() {
        return static_cast<double>(net->stats().lockPacketsDelivered);
    });
    reg.addSampleFn(prefix + ".net.packet_latency",
                    [net]() { return net->stats().packetLatency; });
    reg.addSampleFn(prefix + ".net.lock_packet_latency",
                    [net]() { return net->stats().lockPacketLatency; });
    reg.addSampleFn(prefix + ".net.data_packet_latency",
                    [net]() { return net->stats().dataPacketLatency; });
    reg.addHistogramFn(prefix + ".net.packet_latency_hist",
                       [net]() { return net->stats().packetLatencyHist; });
    reg.addHistogramFn(prefix + ".net.lock_packet_latency_hist", [net]() {
        return net->stats().lockPacketLatencyHist;
    });
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
        const std::string p =
            prefix + ".thread" + std::to_string(t) + ".";
        const ThreadCounters &tc = pcbs_[t]->counters;
        ThreadCounters::forEachField([&](const char *name, auto f) {
            reg.addScalar(p + name, &(tc.*f));
        });
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
    if (strips_.size() == 1) {
        // The serial order: no worker, no deferred link.
        tickRouters(strips_[0], now);
        tickNodes(strips_[0], now);
        return;
    }
    if (workers_.empty() && !startWorkers()) {
        tick(now); // fell back to one strip
        return;
    }
    // Every strip of the previous cycle is done, so no thread holds a
    // claim while the counters reset.
    cycle_.store(now, std::memory_order_relaxed);
    routed_.store(0, std::memory_order_relaxed);
    settled_.store(0, std::memory_order_relaxed);
    const unsigned e = epoch_.fetch_add(1, std::memory_order_release) + 1;
    epoch_.notify_all();
    runCycle(0, e);
    const unsigned n = numStrips();
    awaitChange(
        settled_, [&](unsigned v) { return v == n; },
        [&] { claimAny(2 * e + 2, &System::tickNodes, settled_); });
    if (failure_)
        std::rethrow_exception(std::exchange(failure_, nullptr));
}

void
System::tickRouters(Strip &s, Cycle now)
{
    if (s.netWake <= now)
        network_->tickRouters(s.first, s.last, now);
}

void
System::tickNodes(Strip &s, Cycle now)
{
    network_->landPending(s.index);
    if (s.netWake <= now)
        network_->tickNis(s.first, s.last, now);
    for (NodeId n = s.first; n < s.last; ++n)
        if (l1s_[n]->nextWake() <= now)
            l1s_[n]->tick(now);
    for (NodeId n = s.first; n < s.last; ++n)
        if (l2s_[n]->nextWake() <= now)
            l2s_[n]->tick(now);
    for (NodeId n = s.first; n < s.last; ++n)
        if (lockMgrs_[n]->nextWake() <= now)
            lockMgrs_[n]->tick(now);
    for (unsigned m = s.mcFirst; m < s.mcLast; ++m)
        if (mcs_[m]->nextWake() <= now)
            mcs_[m]->tick(now);
    for (ThreadId t = s.threadFirst; t < s.threadLast; ++t)
        if (qspins_[t]->nextWake() <= now)
            qspins_[t]->tick(now);
    for (ThreadId t = s.threadFirst; t < s.threadLast; ++t)
        if (cores_[t]->nextWake() <= now)
            cores_[t]->tick(now);

    // All sends of this cycle have been queued by now (NI inject
    // queues stamp ready = now + 1), so this scan sees them.
    s.netWake = network_->nextWake(s.first, s.last, now);
    Cycle w = s.netWake;
    for (NodeId n = s.first; n < s.last; ++n) {
        w = std::min(w, l1s_[n]->nextWake());
        w = std::min(w, l2s_[n]->nextWake());
        w = std::min(w, lockMgrs_[n]->nextWake());
    }
    for (unsigned m = s.mcFirst; m < s.mcLast; ++m)
        w = std::min(w, mcs_[m]->nextWake());
    for (ThreadId t = s.threadFirst; t < s.threadLast; ++t) {
        w = std::min(w, qspins_[t]->nextWake());
        w = std::min(w, cores_[t]->nextWake());
    }
    s.wake = w;
}

Cycle
System::nextWake(Cycle) const
{
    Cycle w = neverCycle;
    for (const Strip &s : strips_)
        w = std::min(w, s.wake);
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
