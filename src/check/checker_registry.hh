/**
 * @file
 * CheckerRegistry: the single object the simulation hooks talk to.
 *
 * One registry hangs off a System when CheckConfig enables any
 * checker. Components (Router, Link, NetworkInterface, LockManager,
 * QSpinlock, Simulator) hold a plain `CheckerRegistry *` that is null
 * when checking is off — exactly the Tracer pattern — so a disabled
 * run pays one pointer test per hook site and touches no shared
 * state, keeping checker-off runs bit-identical.
 *
 * On a violation the registry records it, and (by default) dumps the
 * tail of the trace ring plus a dotted stats snapshot to stderr
 * before aborting. Tests install a collecting handler instead via
 * setViolationHandler().
 */

#ifndef OCOR_CHECK_CHECKER_REGISTRY_HH
#define OCOR_CHECK_CHECKER_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "check/check_config.hh"
#include "check/checkers.hh"
#include "common/types.hh"
#include "core/ocor_config.hh"

namespace ocor
{

class System;
class Tracer;
struct Packet;
struct Flit;

/** Pluggable runtime invariant checkers behind one hook surface. */
class CheckerRegistry
{
  public:
    using ViolationHandler =
        std::function<void(const CheckViolation &)>;

    /**
     * @p vc_depth feeds the credit-conservation bound; @p ocor the
     * independent Table-1 rank recomputation. Only the checkers
     * selected by @p cfg are instantiated.
     */
    CheckerRegistry(const CheckConfig &cfg, const OcorConfig &ocor,
                    unsigned vc_depth);
    ~CheckerRegistry();

    CheckerRegistry(const CheckerRegistry &) = delete;
    CheckerRegistry &operator=(const CheckerRegistry &) = delete;

    // --- wiring (all optional; null is always safe) -----------------
    void attachSystem(System *sys) { sys_ = sys; }
    void attachTracer(const Tracer *t) { tracer_ = t; }

    /** Replace the dump-and-abort default (tests collect instead). */
    void setViolationHandler(ViolationHandler h)
    {
        handler_ = std::move(h);
    }

    const CheckConfig &config() const { return cfg_; }

    /** Violations seen so far (only grows under a custom handler —
     * the default handler aborts on the first one). */
    std::uint64_t violations() const { return violations_.size(); }
    const std::vector<CheckViolation> &log() const
    {
        return violations_;
    }

    // --- NoC hooks --------------------------------------------------
    void onInject(const Packet &pkt, Cycle now);
    void onVcPush(NodeId node, unsigned port, unsigned vc,
                  const Flit &flit, Cycle now);
    void onVcPop(NodeId node, unsigned port, unsigned vc,
                 const Flit &flit, Cycle now);
    void onArbGrant(NodeId node, const char *stage,
                    const std::vector<const Packet *> &candidates,
                    unsigned winner, Cycle now);
    void onTraversal(NodeId node, unsigned out_port, unsigned out_vc,
                     Cycle now);
    void onCreditReturn(NodeId node, unsigned port, unsigned vc,
                        Cycle now);
    void onLinkFlitSent();
    void onLinkFlitDelivered();

    /** Arbitration checking enabled? (Routers skip building the
     * candidate vector otherwise.) */
    bool wantsArbitration() const { return arb_ != nullptr; }

    // --- OS hooks ---------------------------------------------------
    void onAcquireStart(ThreadId tid, Cycle now);
    void onLockTry(ThreadId tid, unsigned rtr, Cycle now);
    void onWakeSent(Addr lock, ThreadId tid, Cycle now);
    void onWakeConsumed(Addr lock, ThreadId tid, Cycle now);

    // --- simulation loop hooks --------------------------------------
    /** End-of-cycle global invariants (mutual exclusion walk over
     * the attached System). */
    void onCycleEnd(Cycle now);

    /** Mutual-exclusion walk over an externally built snapshot
     * (model-checker replay: no System attached). */
    void onHolderWalk(const std::vector<HolderView> &view, Cycle now);

    /** End-of-run invariants (conservation, lost wakeups). */
    void finalize(Cycle now);

    /** Trace-ring tail + dotted stats snapshot (the violation dump;
     * public so tests can inspect it). */
    void dumpDiagnostics(std::ostream &os) const;

  private:
    void report(CheckId id, Cycle cycle, const std::string &msg);

    CheckConfig cfg_;

    System *sys_ = nullptr;
    const Tracer *tracer_ = nullptr;

    std::unique_ptr<MutexChecker> mutex_;
    std::unique_ptr<VcFifoChecker> fifo_;
    std::unique_ptr<OneHotChecker> onehot_;
    std::unique_ptr<ArbitrationChecker> arb_;
    std::unique_ptr<CreditChecker> credit_;
    std::unique_ptr<RtrChecker> rtr_;
    std::unique_ptr<WakeupChecker> wakeup_;

    /** Scratch snapshot for onCycleEnd (reused, no per-cycle alloc). */
    std::vector<HolderView> holderView_;

    std::vector<CheckViolation> violations_;
    ViolationHandler handler_;
};

} // namespace ocor

#endif // OCOR_CHECK_CHECKER_REGISTRY_HH
