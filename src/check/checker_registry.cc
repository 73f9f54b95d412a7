#include "check/checker_registry.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/log.hh"
#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "noc/flit.hh"
#include "sim/system.hh"

namespace ocor
{

CheckerRegistry::CheckerRegistry(const CheckConfig &cfg,
                                 const OcorConfig &ocor,
                                 unsigned vc_depth)
    : cfg_(cfg)
{
    ReportFn sink = [this](CheckId id, Cycle cycle,
                           const std::string &msg) {
        report(id, cycle, msg);
    };
    if (cfg_.has(CheckId::Mutex))
        mutex_ = std::make_unique<MutexChecker>(sink);
    if (cfg_.has(CheckId::VcFifo))
        fifo_ = std::make_unique<VcFifoChecker>(sink);
    if (cfg_.has(CheckId::OneHot))
        onehot_ = std::make_unique<OneHotChecker>(sink, ocor);
    if (cfg_.has(CheckId::Arbitration))
        arb_ = std::make_unique<ArbitrationChecker>(sink, ocor);
    if (cfg_.has(CheckId::Credit))
        credit_ = std::make_unique<CreditChecker>(sink, vc_depth);
    if (cfg_.has(CheckId::Rtr))
        rtr_ = std::make_unique<RtrChecker>(sink, ocor);
    if (cfg_.has(CheckId::Wakeup))
        wakeup_ = std::make_unique<WakeupChecker>(sink);
}

CheckerRegistry::~CheckerRegistry() = default;

void
CheckerRegistry::report(CheckId id, Cycle cycle,
                        const std::string &msg)
{
    CheckViolation v;
    v.id = id;
    v.cycle = cycle;
    v.message = msg;
    violations_.push_back(v);

    if (handler_) {
        handler_(v);
        return;
    }

    // Default: dump diagnostics and abort — a violated invariant
    // means every simulated number after this point is garbage.
    std::ostringstream diag;
    dumpDiagnostics(diag);
    std::fputs(diag.str().c_str(), stderr);
    ocor_panic("[check:%s] cycle %llu: %s", checkName(id),
               static_cast<unsigned long long>(cycle), msg.c_str());
}

void
CheckerRegistry::dumpDiagnostics(std::ostream &os) const
{
    os << "=== invariant-checker diagnostics ===\n";
    if (tracer_) {
        auto recs = tracer_->snapshot();
        const std::size_t n =
            std::min(cfg_.dumpEvents, recs.size());
        os << "--- last " << n << " trace events (of "
           << recs.size() << " retained) ---\n";
        for (std::size_t i = recs.size() - n; i < recs.size(); ++i) {
            const TraceRecord &r = recs[i];
            os << r.cycle << " " << traceEvName(r.ev) << " node="
               << r.node << " thread=";
            if (r.thread == invalidThread)
                os << "-";
            else
                os << r.thread;
            os << " addr=0x" << std::hex << r.addr << std::dec
               << " pkt=" << r.pkt << " a0=" << r.a0 << " a1="
               << r.a1 << "\n";
        }
    } else {
        os << "(no tracer attached: re-run with --trace for the "
              "event tail)\n";
    }
    if (sys_) {
        os << "--- stats snapshot ---\n";
        StatsRegistry reg;
        sys_->registerStats(reg);
        reg.dumpJson(os);
        os << "\n";
    }
}

// --- NoC hooks ------------------------------------------------------

void
CheckerRegistry::onInject(const Packet &pkt, Cycle now)
{
    if (onehot_)
        onehot_->onInject(pkt, now);
}

void
CheckerRegistry::onVcPush(NodeId node, unsigned port, unsigned vc,
                          const Flit &flit, Cycle now)
{
    if (fifo_)
        fifo_->onPush(node, port, vc, flit.pkt->id, flit.index, now);
}

void
CheckerRegistry::onVcPop(NodeId node, unsigned port, unsigned vc,
                         const Flit &flit, Cycle now)
{
    if (fifo_)
        fifo_->onPop(node, port, vc, flit.pkt->id, flit.index, now);
}

void
CheckerRegistry::onArbGrant(
    NodeId node, const char *stage,
    const std::vector<const Packet *> &candidates, unsigned winner,
    Cycle now)
{
    if (arb_)
        arb_->onGrant(node, stage, candidates, winner, now);
}

void
CheckerRegistry::onTraversal(NodeId node, unsigned out_port,
                             unsigned out_vc, Cycle now)
{
    if (credit_)
        credit_->onTraversal(node, out_port, out_vc, now);
}

void
CheckerRegistry::onCreditReturn(NodeId node, unsigned port,
                                unsigned vc, Cycle now)
{
    if (credit_)
        credit_->onCredit(node, port, vc, now);
}

void
CheckerRegistry::onLinkFlitSent()
{
    if (credit_)
        credit_->onLinkFlitSent();
}

void
CheckerRegistry::onLinkFlitDelivered()
{
    if (credit_)
        credit_->onLinkFlitDelivered();
}

// --- OS hooks -------------------------------------------------------

void
CheckerRegistry::onAcquireStart(ThreadId tid, Cycle now)
{
    if (rtr_)
        rtr_->onAcquireStart(tid, now);
}

void
CheckerRegistry::onLockTry(ThreadId tid, unsigned rtr, Cycle now)
{
    if (rtr_)
        rtr_->onLockTry(tid, rtr, now);
}

void
CheckerRegistry::onWakeSent(Addr lock, ThreadId tid, Cycle now)
{
    if (wakeup_)
        wakeup_->onWakeSent(lock, tid, now);
}

void
CheckerRegistry::onWakeConsumed(Addr lock, ThreadId tid, Cycle now)
{
    if (wakeup_)
        wakeup_->onWakeConsumed(lock, tid, now);
}

// --- simulation loop hooks ------------------------------------------

void
CheckerRegistry::onCycleEnd(Cycle now)
{
    if (!mutex_ || !sys_)
        return;
    const unsigned n = sys_->numThreads();
    holderView_.resize(n);
    for (ThreadId t = 0; t < n; ++t) {
        const QSpinlock &qs = sys_->qspinlock(t);
        holderView_[t] = {qs.holding(),
                          sys_->pcb(t).state == ThreadState::InCS,
                          qs.currentLock()};
    }
    mutex_->onHolderWalk(holderView_, now);
}

void
CheckerRegistry::onHolderWalk(const std::vector<HolderView> &view,
                              Cycle now)
{
    if (mutex_)
        mutex_->onHolderWalk(view, now);
}

void
CheckerRegistry::finalize(Cycle now)
{
    // A truncated run (hang watchdog, maxCycles) may cut a flit or a
    // wakeup off in flight: only a drained run can prove one lost.
    const bool drained = !sys_ || sys_->drained();
    if (credit_)
        credit_->finalize(drained, now);
    if (wakeup_)
        wakeup_->finalize(drained, now);
}

} // namespace ocor
