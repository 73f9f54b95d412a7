/**
 * @file
 * Causal-attribution layer tests (DESIGN.md §14): the COH cause
 * ledger. The two hard promises enforced here are (1) the ledger is
 * invisible when off — field-exact metrics — and stays
 * result-neutral when on, and (2) the cause split is exact: per
 * thread and per lock, the five cause counters sum to the COH cycles
 * they refine, with nothing dropped or double-charged. That skipping
 * quiet spans charges the same split as processing every cycle is
 * checked by the loop's fuzz in test_event_core.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "os/lock_ledger.hh"
#include "same_run.hh"
#include "sim/simulator.hh"

using namespace ocor;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.seed = 11;
    return cfg;
}

std::vector<Program>
contendedPrograms(unsigned n, unsigned iters = 3)
{
    std::vector<Program> out;
    for (unsigned t = 0; t < n; ++t) {
        ProgramBuilder b;
        for (unsigned i = 0; i < iters; ++i)
            b.compute(100 + 37 * t).lock(0).compute(50).unlock(0);
        out.push_back(b.build());
    }
    return out;
}

RunMetrics
runWith(const SystemConfig &cfg, SimOptions opts)
{
    Simulator sim(cfg, contendedPrograms(cfg.numThreads), {}, opts);
    return sim.run();
}

/** @p m with the five COH cause counters of every thread zeroed. */
RunMetrics
withoutCauses(RunMetrics m)
{
    for (ThreadCounters &c : m.perThread) {
        c.cohTransferCycles = 0;
        c.cohArbitrationCycles = 0;
        c.cohBackoffCycles = 0;
        c.cohSleepCycles = 0;
        c.cohGrantGapCycles = 0;
    }
    return m;
}

std::uint64_t
causeSum(const ThreadCounters &c)
{
    return c.cohTransferCycles + c.cohArbitrationCycles +
        c.cohBackoffCycles + c.cohSleepCycles + c.cohGrantGapCycles;
}

} // namespace

TEST(Attribution, LedgerOffIsFieldExactAndCauseFree)
{
    SystemConfig cfg = smallConfig();
    RunMetrics plain = runWith(cfg, {});
    RunMetrics again = runWith(cfg, {});
    EXPECT_TRUE(sameRun(plain, again));

    // Without the ledger the cause counters never move.
    for (const ThreadCounters &c : plain.perThread)
        EXPECT_EQ(causeSum(c), 0u);
}

TEST(Attribution, LedgerDoesNotChangeAggregateResults)
{
    SystemConfig cfg = smallConfig();
    RunMetrics plain = runWith(cfg, {});

    SimOptions opts;
    opts.cohLedger = true;
    RunMetrics ledgered = runWith(cfg, opts);
    // The ledger refines COH into causes but changes nothing else.
    EXPECT_TRUE(sameRun(withoutCauses(plain), withoutCauses(ledgered)));
}

TEST(Attribution, CausesSumExactlyToCohPerThreadAndPerLock)
{
    SystemConfig cfg = smallConfig();
    SimOptions opts;
    opts.cohLedger = true;
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, 3), {},
                  opts);
    RunMetrics m = sim.run();

    // Per thread: the five causes partition blockedIdleCycles.
    std::uint64_t total_coh = 0;
    for (std::size_t t = 0; t < m.perThread.size(); ++t) {
        const ThreadCounters &c = m.perThread[t];
        EXPECT_EQ(causeSum(c), c.blockedIdleCycles)
            << "thread " << t;
        total_coh += c.blockedIdleCycles;
    }
    EXPECT_GT(total_coh, 0u) << "workload was not contended";

    // Per lock: the ledger's cause cycles cover every COH cycle.
    const LockLedger *ledger = sim.ledger();
    ASSERT_NE(ledger, nullptr);
    EXPECT_EQ(ledger->totalCycles(), total_coh);
    std::uint64_t lock_total = 0;
    for (const auto &kv : ledger->locks()) {
        std::uint64_t per_lock = 0;
        for (std::size_t c = 0; c < kNumCohCauses; ++c)
            per_lock += kv.second.causeCycles[c];
        lock_total += per_lock;
        EXPECT_GT(kv.second.attempts, 0u);
        EXPECT_GE(kv.second.attempts, kv.second.grants);
    }
    EXPECT_EQ(lock_total, total_coh);

    // The contended phase exercises more than one cause (a sleepy
    // 4-thread convoy sees at least transfer + one waiting cause).
    unsigned active = 0;
    for (std::size_t c = 0; c < kNumCohCauses; ++c)
        active += ledger->totalCause(static_cast<CohCause>(c)) > 0;
    EXPECT_GE(active, 2u);
}
