#include "sim/telemetry.hh"

#include <cstdio>
#include <ostream>

#include "sim/metrics.hh"
#include "sim/system.hh"

namespace ocor
{

const char *
telemetryKindName(TelemetryKind k)
{
    switch (k) {
      case TelemetryKind::RouterOccupancy: return "router_occupancy";
      case TelemetryKind::LinkUtil:        return "link_util";
      case TelemetryKind::ThreadSeg:       return "thread_seg";
    }
    return "?";
}

TelemetryRecorder::TelemetryRecorder(Cycle interval,
                                     std::size_t max_points)
    : interval_(interval), maxPoints_(max_points)
{
    if (interval_ > 0)
        nextAt_ = interval_;
}

void
TelemetryRecorder::sample(Cycle now, System &sys)
{
    Network &net = sys.network();
    const unsigned nodes = net.mesh().numNodes();
    const unsigned links = net.numLinks();
    const unsigned threads = sys.numThreads();

    if (prevLinkFlits_.empty())
        prevLinkFlits_.assign(links, 0);
    rows_.reserve(rows_.size() + nodes + links + threads);

    for (NodeId n = 0; n < nodes; ++n)
        rows_.push_back(
            {now, n, static_cast<double>(net.router(n).occupancy(now)),
             TelemetryKind::RouterOccupancy});

    for (unsigned l = 0; l < links; ++l) {
        std::uint64_t flits = net.link(l).flitsCarried();
        double util = static_cast<double>(flits - prevLinkFlits_[l])
            / static_cast<double>(interval_);
        prevLinkFlits_[l] = flits;
        rows_.push_back({now, l, util, TelemetryKind::LinkUtil});
    }

    for (ThreadId t = 0; t < threads; ++t)
        rows_.push_back(
            {now, t,
             static_cast<double>(static_cast<unsigned>(
                 segClassOf(sys.pcb(t).state))),
             TelemetryKind::ThreadSeg});

    ++points_;
    nextAt_ = now + interval_;
}

void
TelemetryRecorder::exportCsv(std::ostream &os) const
{
    os << "cycle,kind,index,value\n";
    char buf[40];
    for (const TelemetryRow &r : rows_) {
        std::snprintf(buf, sizeof(buf), "%.17g", r.value);
        os << r.cycle << ',' << telemetryKindName(r.kind) << ','
           << r.index << ',' << buf << '\n';
    }
}

} // namespace ocor
