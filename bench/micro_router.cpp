/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot arbitration paths:
 * the Table-1 rank computation, the one-hot LPA, the rank arbiter
 * (ranked and equal-rank picks), and a full router tick under ranked
 * lock traffic or unranked normal traffic. These quantify the "low
 * overhead" claim of Section 4.2's comparator-free design and keep
 * the simulator's inner loop honest.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "noc/arbiter.hh"
#include "noc/router.hh"

using namespace ocor;

namespace
{

OcorConfig
enabledCfg()
{
    OcorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

void
BM_PriorityRank(benchmark::State &state)
{
    OcorConfig cfg = enabledCfg();
    auto f = makePriority(cfg, PriorityClass::LockTry, 17, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(priorityRank(cfg, f));
}
BENCHMARK(BM_PriorityRank);

void
BM_MakePriority(benchmark::State &state)
{
    OcorConfig cfg = enabledCfg();
    unsigned rtr = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            makePriority(cfg, PriorityClass::LockTry, rtr, 3));
        rtr = rtr % 128 + 1;
    }
}
BENCHMARK(BM_MakePriority);

void
BM_LpaSelect(benchmark::State &state)
{
    OcorConfig cfg = enabledCfg();
    std::vector<LpaInput> inputs(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i].valid = true;
        inputs[i].fields = makePriority(
            cfg, PriorityClass::LockTry,
            static_cast<unsigned>(1 + i * 16 % 128), i % 8);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(lpaSelect(cfg, inputs));
}
BENCHMARK(BM_LpaSelect)->Arg(2)->Arg(6)->Arg(16);

/** Arguments: inputs, and whether every requester ranks 0 (then the
 * routers and NIs take pickEqual, as they do for normal traffic). */
void
BM_ArbiterPick(benchmark::State &state)
{
    const auto n = static_cast<unsigned>(state.range(0));
    const bool equal = state.range(1) != 0;
    Arbiter arb(n);
    std::vector<std::int64_t> ranks(n);
    ReqMask req;
    for (unsigned i = 0; i < n; ++i) {
        ranks[i] = static_cast<std::int64_t>(i % 5);
        req.set(i);
    }
    for (auto _ : state) {
        if (equal)
            benchmark::DoNotOptimize(arb.pickEqual(req));
        else
            benchmark::DoNotOptimize(
                arb.pick(req, [&](unsigned i) { return ranks[i]; }));
    }
}
BENCHMARK(BM_ArbiterPick)
    ->ArgNames({"inputs", "equal"})
    ->Args({6, 0})
    ->Args({30, 0})
    ->Args({80, 0})
    ->Args({6, 1})
    ->Args({30, 1})
    ->Args({80, 1});

/** Arguments: OCOR on, and whether the feeds carry normal (unranked)
 * packets instead of ranked lock tries. Normal traffic is over 99.7%
 * of routed flits in the benchmark workloads and takes the equal-rank
 * picks. */
void
BM_RouterTickLoaded(benchmark::State &state)
{
    const bool ocor_on = state.range(0) != 0;
    const bool normal = state.range(1) != 0;
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    ocor.enabled = ocor_on;
    OcorConfig stamping = enabledCfg();

    Router router(0, mesh, params, ocor);
    Link in_w, in_l, in_e, out_e, out_l;
    router.attach(PortWest, &in_w, nullptr);
    router.attach(PortLocal, &in_l, &out_l);
    router.attach(PortEast, &in_e, &out_e);

    // Both feeding ports act like real upstream routers: one flit per
    // cycle at most, and only into a VC they hold a credit for.
    Link *feeds[] = {&in_w, &in_l};
    std::vector<unsigned> credits[2];
    for (auto &c : credits)
        c.assign(params.numVcs, params.vcDepth);

    Cycle now = 0;
    unsigned seq = 0;
    for (auto _ : state) {
        // Keep both input ports fed with competing packets.
        for (unsigned k = 0; k < 2; ++k) {
            for (unsigned vc : feeds[k]->takeCredits(now))
                ++credits[k][vc];
            const unsigned vc = seq++ % params.numVcs;
            if (credits[k][vc] == 0)
                continue;
            --credits[k][vc];
            auto pkt = makePacket(
                normal ? MsgType::GetS : MsgType::LockTry, 0, 1, 0x80);
            if (!normal)
                pkt->priority =
                    makePriority(stamping, PriorityClass::LockTry,
                                 1 + (seq % 128), seq % 16);
            Flit f;
            f.pkt = std::move(pkt);
            f.type = FlitType::HeadTail;
            f.vc = vc;
            feeds[k]->sendFlit(std::move(f), now);
        }
        router.tick(now);
        while (auto f = out_e.takeFlit(now))
            out_e.sendCredit(f->vc, now);
        ++now;
    }
    // One benchmark iteration is one router tick.
    state.counters["flits/tick"] = benchmark::Counter(
        static_cast<double>(router.stats().flitsRouted),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RouterTickLoaded)
    ->ArgNames({"ocor", "normal"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1});

} // namespace

BENCHMARK_MAIN();
