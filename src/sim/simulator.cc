#include "sim/simulator.hh"

#include <chrono>
#include <mutex>
#include <sstream>

#include "common/log.hh"
#include "os/lock_ledger.hh"

namespace ocor
{

namespace
{

using sim_clock = std::chrono::steady_clock;

double
secondsSince(sim_clock::time_point a, sim_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The watchdog/deadline poll stride of the run loop (cycles with
 * (now & kStrideMask) == 0 are poll cycles). */
constexpr Cycle kStrideMask = 0x7ff;

/** Process-global run aggregates (registerAggregateStats). */
std::mutex g_agg_mu;
WallProfile g_agg_wall;
std::uint64_t g_agg_runs = 0;

WallProfile
aggregateWall()
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    return g_agg_wall;
}

void
mergeRunAggregates(const WallProfile &wall)
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    g_agg_wall.totalSeconds += wall.totalSeconds;
    g_agg_wall.tickSeconds += wall.tickSeconds;
    g_agg_wall.accountSeconds += wall.accountSeconds;
    g_agg_wall.schedSeconds += wall.schedSeconds;
    g_agg_wall.cycles += wall.cycles;
    g_agg_wall.cyclesProcessed += wall.cyclesProcessed;
    g_agg_wall.cyclesSkipped += wall.cyclesSkipped;
    ++g_agg_runs;
}

/**
 * Register the "sim.wall.*" view of the WallProfile @p wall returns,
 * read at dump time.
 */
template <typename WallFn>
void
addWallStats(StatsRegistry &reg, WallFn wall)
{
    reg.addScalarFn("sim.wall.total_seconds",
                    [wall] { return wall().totalSeconds; });
    reg.addScalarFn("sim.wall.tick_seconds",
                    [wall] { return wall().tickSeconds; });
    reg.addScalarFn("sim.wall.account_seconds",
                    [wall] { return wall().accountSeconds; });
    reg.addScalarFn("sim.wall.sched_seconds",
                    [wall] { return wall().schedSeconds; });
    reg.addScalarFn("sim.wall.cycles", [wall] {
        return static_cast<double>(wall().cycles);
    });
    reg.addScalarFn("sim.wall.cycles_processed", [wall] {
        return static_cast<double>(wall().cyclesProcessed);
    });
    reg.addScalarFn("sim.wall.cycles_skipped", [wall] {
        return static_cast<double>(wall().cyclesSkipped);
    });
}

} // namespace

void
registerAggregateStats(StatsRegistry &reg)
{
    // Everything reads the global aggregate at dump time, so stats
    // registered before a sweep report the sweep's final totals.
    if (!reg.has("sim.wall.total_seconds"))
        addWallStats(reg, aggregateWall);
    reg.addScalarFn("sim.wall.runs", []() {
        std::lock_guard<std::mutex> lk(g_agg_mu);
        return static_cast<double>(g_agg_runs);
    });
}

Simulator::Simulator(const SystemConfig &cfg,
                     std::vector<Program> programs,
                     const BgTrafficConfig &bg, Options opts)
    : cfg_(cfg), opts_(opts)
{
    system_ = std::make_unique<System>(cfg, std::move(programs), bg);
    live_.reserve(system_->numThreads());
    for (ThreadId t = 0; t < system_->numThreads(); ++t)
        live_.push_back(t);
    if (opts_.timelineHorizon > 0) {
        unsigned t = opts_.timelineThreads == 0
            ? system_->numThreads()
            : std::min(opts_.timelineThreads, system_->numThreads());
        timeline_ = Timeline(t, opts_.timelineHorizon);
    }
    if (opts_.cohLedger) {
        ledger_ =
            std::make_unique<LockLedger>(system_->numThreads());
        system_->setLedger(ledger_.get());
    }
}

// Out of line: LockLedger is incomplete in the header.
Simulator::~Simulator() = default;

Cycle
Simulator::tryBudget(ThreadId t, Addr lock)
{
    Packet p;
    p.src = system_->pcb(t).node;
    p.dst = system_->addressMap().homeOf(lock);
    p.numFlits = 1;
    return 2 * system_->network().uncontendedLatency(p)
        + cfg_.os.homeLatency;
}

void
Simulator::chargeCohCauses(ThreadId t, Pcb &pcb, Addr lock,
                           Cycle from, Cycle to)
{
    auto charge = [&](CohCause cause, std::uint64_t n) {
        if (n == 0)
            return;
        switch (cause) {
          case CohCause::Transfer:
            pcb.counters.cohTransferCycles += n;
            break;
          case CohCause::Arbitration:
            pcb.counters.cohArbitrationCycles += n;
            break;
          case CohCause::Backoff:
            pcb.counters.cohBackoffCycles += n;
            break;
          case CohCause::Sleep:
            pcb.counters.cohSleepCycles += n;
            break;
          case CohCause::GrantGap:
            pcb.counters.cohGrantGapCycles += n;
            break;
          default:
            break;
        }
        ledger_->charge(lock, cause, n);
    };
    const QSpinlock &qs = system_->qspinlock(t);
    switch (pcb.state) {
      case ThreadState::Spinning:
        if (qs.tryInFlight()) {
            // The LockTry (or its verdict) is on the wire. Up to
            // the uncontended round-trip budget that is NoC
            // transfer; anything beyond is the home arbitrating
            // among competing tries (queueing, RTR ordering).
            const Cycle boundary =
                qs.trySentAt() + tryBudget(t, lock);
            const Cycle split =
                std::min(std::max(boundary, from), to);
            charge(CohCause::Transfer, split - from);
            charge(CohCause::Arbitration, to - split);
        } else {
            // No request outstanding: the client is sitting out a
            // local RTR retry backoff interval.
            charge(CohCause::Backoff, to - from);
        }
        break;
      case ThreadState::SleepPrep:
      case ThreadState::Sleeping:
        charge(CohCause::Sleep, to - from);
        break;
      case ThreadState::Waking:
        // Grant arrived while the thread sleeps: the lock is
        // reserved but unused until the wakeup completes.
        charge(CohCause::GrantGap, to - from);
        break;
      default:
        break;
    }
}

std::uint64_t
Simulator::progressSignal() const
{
    // Strictly monotone while any thread retires work (compute or CS
    // cycles, lock acquisitions, completion) or the NoC delivers
    // packets; constant exactly when the run is wedged.
    std::uint64_t p = system_->network().stats().packetsDelivered;
    const unsigned threads = system_->numThreads();
    for (ThreadId t = 0; t < threads; ++t) {
        const Pcb &pcb = system_->pcb(t);
        p += pcb.counters.computeCycles + pcb.counters.csCycles
            + pcb.counters.acquisitions;
        if (pcb.state == ThreadState::Finished)
            ++p;
    }
    return p;
}

std::string
Simulator::diagnoseHang() const
{
    std::ostringstream os;
    const unsigned threads = system_->numThreads();
    for (ThreadId t = 0; t < threads; ++t) {
        const Pcb &pcb = system_->pcb(t);
        QSpinlock &qs = system_->qspinlock(t);
        os << "t" << t << ": " << threadStateName(pcb.state);
        if (qs.waiting() || qs.holding()) {
            Addr lock = qs.currentLock();
            NodeId home = system_->addressMap().homeOf(lock);
            const LockManager &lm = system_->lockManager(home);
            os << " lock=0x" << std::hex << lock << std::dec
               << " tryInFlight=" << qs.tryInFlight()
               << " | home" << home
               << " held=" << lm.heldNow(lock)
               << " holder=" << lm.holderOf(lock)
               << " queue=" << lm.queueLength(lock)
               << " pollers=" << lm.pollerCount(lock);
        }
        os << "\n";
    }
    return os.str();
}

void
Simulator::accountSpan(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    const std::uint64_t span = to - from;
    // Timeline rows start out Done, so only live threads need rows,
    // and only for spans that start below the recorder horizon.
    const bool record = from < timeline_.horizon();
    for (std::size_t i = 0; i < live_.size();) {
        ThreadId t = live_[i];
        Pcb &pcb = system_->pcb(t);
        switch (pcb.state) {
          case ThreadState::Running:
            pcb.counters.computeCycles += span;
            break;
          case ThreadState::InCS:
            pcb.counters.csCycles += span;
            break;
          case ThreadState::Spinning:
          case ThreadState::SleepPrep:
          case ThreadState::Sleeping:
          case ThreadState::Waking: {
            // Equation-1 decomposition: is the contended lock held
            // (a predecessor is inside the CS) or idle (pure
            // competition overhead)?
            Addr lock = system_->qspinlock(t).currentLock();
            if (system_->lockHolderInCs(lock)) {
                pcb.counters.blockedHeldCycles += span;
            } else {
                pcb.counters.blockedIdleCycles += span;
                if (ledger_)
                    chargeCohCauses(t, pcb, lock, from, to);
            }
            break;
          }
          case ThreadState::Finished:
            // Terminal: unlinked the first span it is seen in and
            // never charged again.
            live_[i] = live_.back();
            live_.pop_back();
            continue;
        }
        if (record)
            timeline_.record(t, from, to, segClassOf(pcb.state));
        ++i;
    }
}

void
Simulator::runLoop(Tracer *tr, CheckerRegistry *ck)
{
    // With a checker registry attached the end-of-cycle invariant
    // walk must run every cycle (its per-cycle verdicts — and thus
    // violation counts under a collecting handler — are observable),
    // so cycle skipping is off; System::tick still ticks only the
    // components that are due.
    const bool skipping = (ck == nullptr);
    const bool has_deadline = opts_.deadline != sim_clock::time_point{};
    const bool stride_active = cfg_.progressWindow > 0 || has_deadline;
    Cycle last_progress_at = 0;
    std::uint64_t last_progress = 0;
    for (now_ = 0; now_ < cfg_.maxCycles;) {
        if (opts_.profileWall) {
            const auto t0 = sim_clock::now();
            system_->tick(now_);
            const auto t1 = sim_clock::now();
            accountSpan(now_, now_ + 1);
            wall_.tickSeconds += secondsSince(t0, t1);
            wall_.accountSeconds += secondsSince(t1, sim_clock::now());
        } else {
            system_->tick(now_);
            accountSpan(now_, now_ + 1);
        }
        ++wall_.cyclesProcessed;
        if (ck)
            ck->onCycleEnd(now_);
        if (system_->allFinished())
            break;
        // The wall-clock deadline and the forward-progress watchdog,
        // polled at a coarse stride so the clock read stays cheap.
        if ((now_ & kStrideMask) == 0) {
            if (has_deadline && sim_clock::now() >= opts_.deadline) {
                cancelled_ = true;
                if (tr)
                    tr->record(TraceCat::Sim, TraceEv::WatchdogFired,
                               now_, invalidNode, invalidThread, 0, 0,
                               1 /* a0 = past deadline, not wedged */);
                break;
            }
            if (cfg_.progressWindow > 0) {
                std::uint64_t p = progressSignal();
                if (p != last_progress) {
                    last_progress = p;
                    last_progress_at = now_;
                } else if (now_ - last_progress_at >=
                           cfg_.progressWindow) {
                    hangDetected_ = true;
                    hangDiagnosis_ = diagnoseHang();
                    if (tr)
                        tr->record(TraceCat::Sim,
                                   TraceEv::WatchdogFired, now_,
                                   invalidNode);
                    ocor_warn("no forward progress for %llu cycles "
                              "at cycle %llu; failing fast\n%s",
                              static_cast<unsigned long long>(
                                  now_ - last_progress_at),
                              static_cast<unsigned long long>(now_),
                              hangDiagnosis_.c_str());
                    break;
                }
            }
        }
        if (!skipping) {
            ++now_;
            continue;
        }

        // Jump to the earliest cycle anything is due: a component or
        // the next poll-stride cycle (so polls land on the cycles a
        // per-cycle loop would visit). Nothing ticks in between, so
        // the span is charged in bulk; past the horizon it is charged
        // up to maxCycles and the run stops there.
        const auto s0 =
            opts_.profileWall ? sim_clock::now() : sim_clock::time_point{};
        Cycle next = system_->nextWake(now_);
        if (stride_active)
            next = std::min(next, (now_ | kStrideMask) + 1);
        next = std::min(std::max(next, now_ + 1), cfg_.maxCycles);
        if (opts_.profileWall)
            wall_.schedSeconds += secondsSince(s0, sim_clock::now());
        accountSpan(now_ + 1, next);
        wall_.cyclesSkipped += next - (now_ + 1);
        now_ = next;
    }
}

RunMetrics
Simulator::run()
{
    const auto run_start = sim_clock::now();

    Tracer *tr = system_->tracer();
    if (tr)
        tr->record(TraceCat::Sim, TraceEv::RunBegin, 0, invalidNode);
    CheckerRegistry *ck = system_->checker();

    runLoop(tr, ck);

    if (!hangDetected_ && !cancelled_ && now_ >= cfg_.maxCycles)
        ocor_warn("simulation hit maxCycles (%llu) before finishing",
                  static_cast<unsigned long long>(cfg_.maxCycles));

    if (tr)
        tr->record(TraceCat::Sim, TraceEv::RunEnd, now_, invalidNode,
                   invalidThread, 0, 0, hangDetected_ ? 1 : 0);
    if (ck)
        ck->finalize(now_);
    wall_.cycles = now_;
    wall_.totalSeconds = secondsSince(run_start, sim_clock::now());

    RunMetrics m;
    m.roiFinish = now_;
    m.threads = system_->numThreads();
    for (ThreadId t = 0; t < m.threads; ++t)
        m.perThread.push_back(system_->pcb(t).counters);

    Network &net = system_->network();
    m.packetsInjected = net.totalPacketsInjected();
    m.flitsInjected = net.totalFlitsInjected();
    m.lockPacketsInjected = net.totalLockPacketsInjected();
    const NetworkStats ns = net.stats();
    m.avgPacketLatency = ns.packetLatency.mean();
    m.avgLockPacketLatency = ns.lockPacketLatency.mean();
    m.avgDataPacketLatency = ns.dataPacketLatency.mean();
    m.p50PacketLatency = ns.packetLatencyHist.percentile(50);
    m.p95PacketLatency = ns.packetLatencyHist.percentile(95);
    m.p99PacketLatency = ns.packetLatencyHist.percentile(99);

    // One handover distribution across all lock homes (usually only
    // one home is hot, but merging keeps the metric shape-agnostic).
    Histogram handover{4.0, 256};
    const unsigned nodes = cfg_.mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n)
        handover.merge(
            system_->lockManager(n).stats().handoverLatencyHist);
    m.p50LockHandover = handover.percentile(50);
    m.p95LockHandover = handover.percentile(95);
    m.p99LockHandover = handover.percentile(99);

    m.hangDetected = hangDetected_;
    m.cancelled = cancelled_;

    // Fold this run into the process-global aggregates so sweeps
    // whose Simulators die inside the result cache still report
    // sim.wall.* totals (registerAggregateStats).
    mergeRunAggregates(wall_);
    return m;
}

void
Simulator::registerStats(StatsRegistry &reg)
{
    system_->registerStats(reg);
    // Host wall-clock cost of the run, split by phase (Fig 10's
    // observability leg). The phase splits are only populated with
    // profileWall on; the cycle counters always are.
    addWallStats(reg, [this]() -> const WallProfile & { return wall_; });
    if (ledger_)
        ledger_->registerStats(reg, "sim.coh");
}

} // namespace ocor
