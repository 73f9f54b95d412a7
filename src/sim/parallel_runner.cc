#include "sim/parallel_runner.hh"

#include <algorithm>
#include <chrono>

#include "common/log.hh"

namespace ocor
{

ParallelRunner::ParallelRunner(unsigned jobs, ResultCache *cache,
                               double deadlineSeconds)
    : pool_(jobs), cache_(cache), deadlineSeconds_(deadlineSeconds)
{
}

double
ParallelRunner::deadlineFor(const RunRequest &req) const
{
    if (deadlineSeconds_ <= 0.0)
        return 0.0;
    const unsigned iters = req.exp.iterationsOverride > 0
        ? req.exp.iterationsOverride
        : req.profile.workload.iterations;
    // Simulated work grows roughly linearly in threads x iterations;
    // the base deadline covers the 16-thread 4-iteration quick
    // configuration and is never scaled below itself.
    const double scale = (req.exp.threads / 16.0) * (iters / 4.0);
    return deadlineSeconds_ * std::max(1.0, scale);
}

RunMetrics
ParallelRunner::runOne(const RunRequest &req)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    Simulator::Options opts;
    const double budget = deadlineFor(req);
    // A budget steady_clock cannot hold from now (about 292 years,
    // or inf) can never fire; adding it would overflow.
    const std::chrono::duration<double> span(budget);
    if (budget > 0.0 && span < clock::time_point::max() - t0)
        opts.deadline =
            t0 + std::chrono::duration_cast<clock::duration>(span);
    RunMetrics m = cache_
        ? cache_->get(req.profile, req.exp, req.ocorEnabled, opts)
        : runOnce(req.profile, req.exp, req.ocorEnabled, opts);
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    const bool complete = isComplete(m);
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        runSeconds_.sample(secs);
        ++runsExecuted_;
        if (m.cancelled)
            ++timeouts_;
        if (!complete)
            ++incomplete_;
    }
    if (m.cancelled)
        ocor_warn("run [%s] passed its %.3gs deadline at cycle %llu; "
                  "its metrics are partial",
                  runLabel(req.profile, req.exp, req.ocorEnabled)
                      .c_str(),
                  budget, static_cast<unsigned long long>(m.roiFinish));
    else if (!complete)
        ocor_warn("run [%s] %s at cycle %llu; its metrics are partial",
                  runLabel(req.profile, req.exp, req.ocorEnabled)
                      .c_str(),
                  m.hangDetected ? "stopped making progress"
                                 : "reached maxCycles",
                  static_cast<unsigned long long>(m.roiFinish));
    return m;
}

SampleStat
ParallelRunner::runSeconds() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return runSeconds_;
}

std::uint64_t
ParallelRunner::runsExecuted() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return runsExecuted_;
}

std::uint64_t
ParallelRunner::timeouts() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return timeouts_;
}

std::uint64_t
ParallelRunner::incompleteRuns() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return incomplete_;
}

double
ParallelRunner::utilization(double elapsed_seconds) const
{
    if (elapsed_seconds <= 0.0 || pool_.size() == 0)
        return 0.0;
    const double busy =
        static_cast<double>(pool_.totalBusyNs()) * 1e-9;
    return busy / (elapsed_seconds * pool_.size());
}

void
ParallelRunner::registerStats(StatsRegistry &reg,
                              const std::string &prefix)
{
    reg.addScalarFn(prefix + ".pool.size", [this]() {
        return static_cast<double>(pool_.size());
    });
    reg.addScalarFn(prefix + ".pool.tasks_executed", [this]() {
        return static_cast<double>(pool_.tasksExecuted());
    });
    reg.addScalarFn(prefix + ".pool.queue_depth", [this]() {
        return static_cast<double>(pool_.queueDepth());
    });
    reg.addScalarFn(prefix + ".pool.busy_ns_total", [this]() {
        return static_cast<double>(pool_.totalBusyNs());
    });
    for (unsigned w = 0; w < pool_.size(); ++w)
        reg.addScalarFn(
            prefix + ".pool.worker" + std::to_string(w) + ".busy_ns",
            [this, w]() {
                return static_cast<double>(pool_.busyNs(w));
            });
    reg.addScalarFn(prefix + ".runs", [this]() {
        return static_cast<double>(runsExecuted());
    });
    reg.addScalarFn(prefix + ".run_seconds_mean", [this]() {
        return runSeconds().mean();
    });
    reg.addScalarFn(prefix + ".run_seconds_max", [this]() {
        SampleStat s = runSeconds();
        return s.count() ? s.max() : 0.0;
    });
    reg.addScalarFn(prefix + ".timeouts", [this]() {
        return static_cast<double>(timeouts());
    });
}

std::vector<RunMetrics>
ParallelRunner::run(const std::vector<RunRequest> &reqs)
{
    std::vector<std::future<RunMetrics>> futs;
    futs.reserve(reqs.size());
    for (const RunRequest &req : reqs)
        futs.push_back(
            pool_.run([this, &req]() { return runOne(req); }));

    std::vector<RunMetrics> out;
    out.reserve(reqs.size());
    for (auto &f : futs)
        out.push_back(f.get());
    return out;
}

std::vector<BenchmarkResult>
ParallelRunner::runComparisons(
    const std::vector<BenchmarkProfile> &profiles,
    const std::vector<ExperimentConfig> &exps)
{
    if (profiles.size() != exps.size())
        ocor_panic("ParallelRunner: %zu profiles for %zu configs",
                   profiles.size(), exps.size());

    // Two requests per pair, interleaved base/ocor so both halves of
    // a comparison start early.
    std::vector<RunRequest> reqs;
    reqs.reserve(2 * profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        reqs.push_back({profiles[i], exps[i], false});
        reqs.push_back({profiles[i], exps[i], true});
    }
    std::vector<RunMetrics> metrics = run(reqs);

    std::vector<BenchmarkResult> out;
    out.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        BenchmarkResult r;
        r.name = profiles[i].name;
        r.suite = profiles[i].suite;
        r.highCsRate = profiles[i].highCsRate;
        r.highNetUtil = profiles[i].highNetUtil;
        r.base = metrics[2 * i];
        r.ocor = metrics[2 * i + 1];
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<BenchmarkResult>
ParallelRunner::runSuite(const std::vector<BenchmarkProfile> &profiles,
                         const ExperimentConfig &exp)
{
    std::vector<ExperimentConfig> exps(profiles.size(), exp);
    return runComparisons(profiles, exps);
}

} // namespace ocor
