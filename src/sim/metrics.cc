#include "sim/metrics.hh"

#include <algorithm>

#include "common/log.hh"

namespace ocor
{

ThreadCounters
RunMetrics::totals() const
{
    ThreadCounters sum;
    for (const ThreadCounters &t : perThread)
        sum += t;
    return sum;
}

double
RunMetrics::cohPct() const
{
    return pct(static_cast<double>(totalCoh()),
               static_cast<double>(roiFinish) * threads);
}

double
RunMetrics::csPct() const
{
    return pct(static_cast<double>(totalCs()),
               static_cast<double>(roiFinish) * threads);
}

double
RunMetrics::blockedPct() const
{
    return pct(static_cast<double>(totalBlocked()),
               static_cast<double>(roiFinish) * threads);
}

double
RunMetrics::spinWinPct() const
{
    return pct(static_cast<double>(totalSpinWins()),
               static_cast<double>(totalAcquisitions()));
}

double
RunMetrics::csAccessRate() const
{
    return ratio(static_cast<double>(lockPacketsInjected),
                 static_cast<double>(roiFinish));
}

double
RunMetrics::netUtilization(unsigned nodes) const
{
    return ratio(static_cast<double>(packetsInjected),
                 static_cast<double>(roiFinish) * nodes);
}

Timeline::Timeline(unsigned threads, Cycle horizon)
    : threads_(threads), horizon_(horizon),
      samples_(static_cast<std::size_t>(threads) * horizon,
               static_cast<std::uint8_t>(SegClass::Done))
{}

void
Timeline::record(ThreadId t, Cycle from, Cycle to, SegClass s)
{
    to = std::min(to, horizon_);
    if (t >= threads_ || from >= to)
        return;
    std::uint8_t *row = samples_.data() + t * horizon_;
    std::fill(row + from, row + to, static_cast<std::uint8_t>(s));
}

SegClass
Timeline::at(ThreadId t, Cycle c) const
{
    if (t >= threads_ || c >= horizon_)
        ocor_panic("Timeline::at out of range");
    return static_cast<SegClass>(
        samples_[static_cast<std::size_t>(t) * horizon_ + c]);
}

double
Timeline::fraction(SegClass s, Cycle upto) const
{
    if (threads_ == 0 || horizon_ == 0)
        return 0.0;
    Cycle h = (upto == 0 || upto > horizon_) ? horizon_ : upto;
    std::uint64_t hit = 0;
    for (unsigned t = 0; t < threads_; ++t)
        for (Cycle c = 0; c < h; ++c)
            if (at(t, c) == s)
                ++hit;
    return static_cast<double>(hit)
        / (static_cast<double>(threads_) * h);
}

SegClass
segClassOf(ThreadState s)
{
    switch (s) {
      case ThreadState::Running:
        return SegClass::Parallel;
      case ThreadState::Spinning:
      case ThreadState::SleepPrep:
      case ThreadState::Sleeping:
      case ThreadState::Waking:
        return SegClass::Blocked;
      case ThreadState::InCS:
        return SegClass::Cs;
      default:
        return SegClass::Done;
    }
}

} // namespace ocor
