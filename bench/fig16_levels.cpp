/**
 * @file
 * Figure 16: sensitivity to the number of RTR priority levels, for
 * the two extreme programs (botss: best improvement; imag: least),
 * plus the rule-ablation study DESIGN.md calls out (--ablate).
 *
 * Expected shape: COH improvement grows with the level count but
 * with diminishing returns, justifying the paper's 8-level default.
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "bench_util.hh"
#include "workload/benchmarks.hh"

using namespace ocor;
using namespace ocor::bench;

namespace
{

ExperimentConfig
withOverride(const Options &opt, const OcorConfig &ocor)
{
    ExperimentConfig exp = opt.experiment();
    exp.ocorOverrideSet = true;
    exp.ocorOverride = ocor;
    return exp;
}

/** Batch all (profile, override) combos through the pool; the
 * shared baseline runs are deduplicated by the cache. A pair with an
 * incomplete side has no value. */
std::vector<std::optional<double>>
improvementsFor(ParallelRunner &runner,
                const std::vector<BenchmarkProfile> &profiles,
                const std::vector<ExperimentConfig> &exps)
{
    std::vector<BenchmarkResult> results =
        runner.runComparisons(profiles, exps);
    std::vector<std::optional<double>> out;
    out.reserve(results.size());
    for (const auto &r : results) {
        if (!isComplete(r.base) || !isComplete(r.ocor))
            out.emplace_back();
        else
            out.emplace_back(r.cohImprovementPct());
    }
    return out;
}

/** One table cell: " 12.3%" in @p width, or "--" without a value. */
void
printCell(const std::optional<double> &v, int width)
{
    if (v)
        std::printf(" %*.1f%%", width - 1, *v);
    else
        std::printf(" %*s", width, "--");
}

void
levelSweep(ParallelRunner &runner, const Options &opt)
{
    const unsigned levels[] = {1, 2, 4, 8, 16, 32};
    const char *names[] = {"botss", "imag"};
    // (pass --quick for 16-thread runs; the full 64-thread sweep is
    // supported but slow)
    std::vector<BenchmarkProfile> profiles;
    std::vector<ExperimentConfig> exps;
    for (const char *name : names) {
        for (unsigned l : levels) {
            OcorConfig ocor;
            ocor.numRtrLevels = l;
            profiles.push_back(profileByName(name));
            exps.push_back(withOverride(opt, ocor));
        }
    }
    std::vector<std::optional<double>> vals =
        improvementsFor(runner, profiles, exps);

    std::printf("\nCOH improvement vs number of RTR priority "
                "levels:\n");
    std::printf("%-8s", "levels");
    for (unsigned l : levels)
        std::printf(" %7u", l);
    std::printf("\n");
    std::size_t i = 0;
    for (const char *name : names) {
        std::printf("%-8s", name);
        for (unsigned l [[maybe_unused]] : levels)
            printCell(vals[i++], 7);
        std::printf("\n");
    }
    std::printf("\nPaper's shape: improvement rises with levels and "
                "saturates near 8. In this\nreproduction the "
                "Lock-First rule dominates, so the level count "
                "barely moves the\nresult (see EXPERIMENTS.md, "
                "Fig. 16 note).\n");
}

void
ablation(ParallelRunner &runner, const Options &opt)
{
    struct Variant
    {
        const char *name;
        void (*tweak)(OcorConfig &);
    };
    const Variant variants[] = {
        {"full OCOR", [](OcorConfig &) {}},
        {"no Slow Progress First",
         [](OcorConfig &c) { c.ruleSlowProgressFirst = false; }},
        {"no Least RTR First",
         [](OcorConfig &c) { c.ruleLeastRtrFirst = false; }},
        {"no Wakeup Request Last",
         [](OcorConfig &c) { c.ruleWakeupLast = false; }},
        {"no Lock First (== baseline)",
         [](OcorConfig &c) { c.ruleLockFirst = false; }},
    };
    const char *names[] = {"botss", "can"};

    std::vector<BenchmarkProfile> profiles;
    std::vector<ExperimentConfig> exps;
    for (const auto &v : variants) {
        for (const char *name : names) {
            OcorConfig ocor;
            v.tweak(ocor);
            profiles.push_back(profileByName(name));
            exps.push_back(withOverride(opt, ocor));
        }
    }
    std::vector<std::optional<double>> vals =
        improvementsFor(runner, profiles, exps);

    std::printf("\nRule ablation (COH improvement over the "
                "original design):\n");
    std::printf("%-28s %10s %10s\n", "variant", "botss", "can");
    std::size_t i = 0;
    for (const auto &v : variants) {
        std::printf("%-28s", v.name);
        for (const char *name [[maybe_unused]] : names)
            printCell(vals[i++], 10);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool ablate = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ablate") == 0)
            ablate = true;
        else
            rest.push_back(argv[i]);
    }
    Options opt = parseOptions(static_cast<int>(rest.size()),
                               rest.data());
    banner("Figure 16: COH improvement vs priority levels "
           "(+ rule ablations)");
    ResultCache cache = cacheFor(opt);
    ParallelRunner runner(opt.jobs, &cache, opt.deadline);
    levelSweep(runner, opt);
    if (ablate)
        ablation(runner, opt);
    else
        std::printf("\n(run with --ablate for the Table-1 rule "
                    "ablation study)\n");
    dumpStatsJson(opt, &runner);
    return sweepExitStatus(runner);
}
