/**
 * @file
 * Interval telemetry: periodic time-series snapshots of simulator
 * state, complementing the event tracer (which records transitions)
 * and the stats registry (which records end-of-run totals).
 *
 * Every N cycles the recorder samples per-router buffer occupancy,
 * per-link utilization over the elapsed interval, and each thread's
 * activity class (the Figure-10 segments). Rows are fixed-size and
 * carry only simulated state, so telemetry output is deterministic
 * across hosts and worker counts.
 */

#ifndef OCOR_SIM_TELEMETRY_HH
#define OCOR_SIM_TELEMETRY_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace ocor
{

class System;

/** What a telemetry row measures. */
enum class TelemetryKind : std::uint8_t
{
    RouterOccupancy, ///< buffered flits in router `index`
    LinkUtil,        ///< flits/cycle on link `index` this interval
    ThreadSeg        ///< SegClass of thread `index` (as a number)
};

/** Name of a telemetry kind (stable; part of the CSV format). */
const char *telemetryKindName(TelemetryKind k);

/** One sampled value. */
struct TelemetryRow
{
    Cycle cycle = 0;
    std::uint32_t index = 0;
    double value = 0.0;
    TelemetryKind kind = TelemetryKind::RouterOccupancy;
};

/** Periodic sampler with a CSV export backend. */
class TelemetryRecorder
{
  public:
    /**
     * @p interval cycles between samples (0 = disabled);
     * @p max_points caps the number of sample *points* (each point
     * produces one row per router, link and thread) so a long run
     * cannot grow the buffer without bound.
     */
    explicit TelemetryRecorder(Cycle interval,
                               std::size_t max_points = 65536);

    bool enabled() const { return interval_ > 0; }
    Cycle interval() const { return interval_; }

    /** True when @p now is a sampling point (cheap; hot-loop safe). */
    bool
    due(Cycle now) const
    {
        return interval_ > 0 && now >= nextAt_ &&
            points_ < maxPoints_;
    }

    /** Next cycle due() can first turn true (neverCycle = no more
     * samples will ever be taken; the run loop's wake scan). */
    Cycle
    nextDue() const
    {
        return (interval_ > 0 && points_ < maxPoints_) ? nextAt_
                                                       : neverCycle;
    }

    /** Take one snapshot of @p sys at cycle @p now. */
    void sample(Cycle now, System &sys);

    /** Sample points taken so far. */
    std::size_t points() const { return points_; }
    const std::vector<TelemetryRow> &rows() const { return rows_; }

    /** CSV: `cycle,kind,index,value` with a header line. */
    void exportCsv(std::ostream &os) const;

  private:
    Cycle interval_;
    Cycle nextAt_ = 0;
    std::size_t maxPoints_;
    std::size_t points_ = 0;
    std::vector<TelemetryRow> rows_;

    /** Per-link flit count at the previous sample (delta basis). */
    std::vector<std::uint64_t> prevLinkFlits_;
};

} // namespace ocor

#endif // OCOR_SIM_TELEMETRY_HH
