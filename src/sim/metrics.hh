/**
 * @file
 * Run-level metrics: the measurements behind every figure and table
 * of the paper's evaluation, plus the execution-timeline recorder of
 * Figure 10.
 *
 * COH accounting follows Equation 1's decomposition: for every cycle
 * a thread spends blocked on a lock, the cycle is charged to
 * "predecessor critical sections" when the lock is held by someone,
 * and to competition overhead (COH) when the lock sits idle — idle
 * lock time under waiters is exactly the handover cost (retry gaps,
 * sleep-preparation, wakeup, packet latency) the paper attacks.
 */

#ifndef OCOR_SIM_METRICS_HH
#define OCOR_SIM_METRICS_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "os/pcb.hh"

namespace ocor
{

/**
 * Aggregated result of one simulation run. forEachField lists every
 * field once, and the results journal, the golden fingerprints and
 * the tests' comparison are driven by it; == is defaulted over the
 * same members.
 */
struct RunMetrics
{
    Cycle roiFinish = 0;       ///< cycle the last thread finished
    unsigned threads = 0;

    std::vector<ThreadCounters> perThread;

    // Network aggregates.
    std::uint64_t packetsInjected = 0;
    std::uint64_t flitsInjected = 0;
    std::uint64_t lockPacketsInjected = 0;

    // Counters of the retired analytic NoC path and of the retired
    // fault model, always zero. They keep every recorded digest that
    // fingerprints them unchanged.
    std::uint64_t fastpathPackets = 0;
    std::uint64_t windowsOpened = 0;
    std::uint64_t windowsClosed = 0;
    std::uint64_t windowCycles = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t flitsDropped = 0;
    std::uint64_t flitsCorrupted = 0;
    std::uint64_t crcRejects = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicatesDropped = 0;
    std::uint64_t watchdogRecoveries = 0;
    std::uint64_t unrecoverable = 0;

    double avgPacketLatency = 0.0;
    double avgLockPacketLatency = 0.0;
    double avgDataPacketLatency = 0.0;

    // Latency distribution tails (0 when no samples were taken).
    double p50PacketLatency = 0.0;
    double p95PacketLatency = 0.0;
    double p99PacketLatency = 0.0;

    // Release -> next-grant gap at the lock homes (handover latency).
    double p50LockHandover = 0.0;
    double p95LockHandover = 0.0;
    double p99LockHandover = 0.0;

    bool hangDetected = false;          ///< progress watchdog fired

    /** A wall-clock deadline (SimOptions::deadline) stopped the run
     * early. Cancelled metrics are partial: they are never journaled,
     * and a bench that receives one exits 75. */
    bool cancelled = false;

    /** Call @p v(name, &RunMetrics::field) for every field, in
     * declaration order. */
    template <typename Visitor>
    static void
    forEachField(Visitor &&v)
    {
        // Fails to compile when a field is added but not listed.
        [[maybe_unused]] auto [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9,
                               f10, f11, f12, f13, f14, f15, f16, f17,
                               f18, f19, f20, f21, f22, f23, f24, f25,
                               f26, f27, f28] = RunMetrics{};
        v("roi_finish", &RunMetrics::roiFinish);
        v("threads", &RunMetrics::threads);
        v("per_thread", &RunMetrics::perThread);
        v("packets_injected", &RunMetrics::packetsInjected);
        v("flits_injected", &RunMetrics::flitsInjected);
        v("lock_packets_injected", &RunMetrics::lockPacketsInjected);
        v("fastpath_packets", &RunMetrics::fastpathPackets);
        v("windows_opened", &RunMetrics::windowsOpened);
        v("windows_closed", &RunMetrics::windowsClosed);
        v("window_cycles", &RunMetrics::windowCycles);
        v("faults_injected", &RunMetrics::faultsInjected);
        v("flits_dropped", &RunMetrics::flitsDropped);
        v("flits_corrupted", &RunMetrics::flitsCorrupted);
        v("crc_rejects", &RunMetrics::crcRejects);
        v("retransmissions", &RunMetrics::retransmissions);
        v("duplicates_dropped", &RunMetrics::duplicatesDropped);
        v("watchdog_recoveries", &RunMetrics::watchdogRecoveries);
        v("unrecoverable", &RunMetrics::unrecoverable);
        v("avg_packet_latency", &RunMetrics::avgPacketLatency);
        v("avg_lock_packet_latency", &RunMetrics::avgLockPacketLatency);
        v("avg_data_packet_latency", &RunMetrics::avgDataPacketLatency);
        v("p50_packet_latency", &RunMetrics::p50PacketLatency);
        v("p95_packet_latency", &RunMetrics::p95PacketLatency);
        v("p99_packet_latency", &RunMetrics::p99PacketLatency);
        v("p50_lock_handover", &RunMetrics::p50LockHandover);
        v("p95_lock_handover", &RunMetrics::p95LockHandover);
        v("p99_lock_handover", &RunMetrics::p99LockHandover);
        v("hang_detected", &RunMetrics::hangDetected);
        v("cancelled", &RunMetrics::cancelled);
    }

    bool operator==(const RunMetrics &) const = default;

    // --- sums over threads ------------------------------------------
    /** Every per-thread counter summed over perThread. */
    ThreadCounters totals() const;
    std::uint64_t totalCompute() const { return totals().computeCycles; }
    std::uint64_t totalCs() const { return totals().csCycles; }
    std::uint64_t totalBlockedHeld() const
    {
        return totals().blockedHeldCycles;
    }
    /** Blocked-while-lock-idle cycles. */
    std::uint64_t totalCoh() const { return totals().blockedIdleCycles; }
    std::uint64_t totalBlocked() const
    {
        return totalBlockedHeld() + totalCoh();
    }
    std::uint64_t totalAcquisitions() const
    {
        return totals().acquisitions;
    }
    std::uint64_t totalSpinWins() const { return totals().spinWins; }
    std::uint64_t totalSleeps() const { return totals().sleeps; }

    // --- derived percentages (of thread-time = threads * roiFinish) -
    double cohPct() const;      ///< Fig 2 / Fig 14a COH share
    double csPct() const;       ///< Fig 2 / Fig 13 CS share
    double blockedPct() const;  ///< Fig 10 blocking share
    double spinWinPct() const;  ///< Fig 11b metric

    /** Lock-packet injection rate (packets/cycle): Fig 12a metric. */
    double csAccessRate() const;

    /** Packet injection rate per node (packets/cycle): Fig 12b. */
    double netUtilization(unsigned nodes) const;
};

/** Whether @p F, a member pointer RunMetrics::forEachField passes, is
 * &RunMetrics::perThread: the one field that is a list, each entry
 * with a field list of its own. */
template <typename F>
constexpr bool isPerThreadField =
    std::is_same_v<F, decltype(&RunMetrics::perThread)>;

/** Coarse activity classes for the Figure-10 execution profile. */
enum class SegClass : std::uint8_t
{
    Parallel, ///< concurrent computation (incl. memory stalls)
    Blocked,  ///< waiting to enter a critical section
    Cs,       ///< executing the critical section
    Done      ///< thread finished
};

/**
 * Per-cycle thread-activity samples over a bounded horizon. Every
 * sample starts out Done, so a finished thread needs no rows.
 */
class Timeline
{
  public:
    Timeline() = default;
    Timeline(unsigned threads, Cycle horizon);

    /** Mark cycles [@p from, min(@p to, horizon)) of thread @p t as
     * @p s; threads past the recorded count are ignored. */
    void record(ThreadId t, Cycle from, Cycle to, SegClass s);
    SegClass at(ThreadId t, Cycle c) const;

    bool enabled() const { return horizon_ > 0; }
    unsigned threads() const { return threads_; }
    Cycle horizon() const { return horizon_; }

    /** Fraction of (thread, cycle) samples in class @p s. */
    double fraction(SegClass s, Cycle upto = 0) const;

  private:
    unsigned threads_ = 0;
    Cycle horizon_ = 0;
    std::vector<std::uint8_t> samples_; ///< threads_ x horizon_
};

/** Classify a thread state into a timeline segment class. */
SegClass segClassOf(ThreadState s);

} // namespace ocor

#endif // OCOR_SIM_METRICS_HH
