/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulation loop: one
 * whole Simulator::run() per iteration, so the gated System::tick,
 * quiet-span skipping and span accounting are timed together, on a
 * contended profile (botss: high CS rate, many blocked threads) and
 * an uncontended one (imag: mostly parallel compute). Each thread
 * runs one critical section to keep the bench short; construction
 * and teardown stay outside the timed region, and items are
 * simulated cycles.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "workload/benchmarks.hh"
#include "workload/synthetic.hh"

using namespace ocor;

namespace
{

constexpr unsigned kThreads = 16;
constexpr unsigned kSeed = 1;
constexpr unsigned kIterations = 1; ///< critical sections per thread

std::unique_ptr<Simulator>
makeSim(const BenchmarkProfile &profile)
{
    SystemConfig cfg;
    cfg.mesh = SystemConfig::meshFor(kThreads);
    cfg.numThreads = kThreads;
    cfg.seed = kSeed;
    cfg.ocor.enabled = false;

    SyntheticParams wl = profile.workload;
    wl.iterations = kIterations;
    std::vector<Program> programs;
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        programs.push_back(buildSyntheticProgram(wl, kSeed, t));

    return std::make_unique<Simulator>(cfg, std::move(programs),
                                       profile.traffic);
}

/** Time one run() per iteration on a freshly built simulator. */
void
runLoop(benchmark::State &state, const char *name)
{
    const BenchmarkProfile profile = profileByName(name);
    std::unique_ptr<Simulator> sim;
    std::int64_t cycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim = makeSim(profile); // also tears down the previous run
        state.ResumeTiming();
        const Cycle roi = sim->run().roiFinish;
        benchmark::DoNotOptimize(roi);
        cycles += static_cast<std::int64_t>(roi);
    }
    state.SetItemsProcessed(cycles);
}

void
BM_SimTickContended(benchmark::State &state)
{
    runLoop(state, "botss");
}
BENCHMARK(BM_SimTickContended);

void
BM_SimTickUncontended(benchmark::State &state)
{
    runLoop(state, "imag");
}
BENCHMARK(BM_SimTickUncontended);

} // namespace

BENCHMARK_MAIN();
