/**
 * @file
 * Hierarchical statistics registry.
 *
 * Components register their existing counters / SampleStats /
 * Histograms under dotted names ("system.router3.vc_busy"-style);
 * the registry stores pointers, so registration is free at simulation
 * time and a dump always reflects the owner's live values. Dumps are
 * emitted as machine-readable JSON with names sorted, so two runs of
 * the same configuration produce byte-identical stats.json files.
 */

#ifndef OCOR_COMMON_STATS_REGISTRY_HH
#define OCOR_COMMON_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hh"

namespace ocor
{

/** Name -> stat-pointer map with a JSON dump backend. */
class StatsRegistry
{
  public:
    /** Register a raw counter; @p v must outlive the registry use. */
    void addScalar(const std::string &name, const std::uint64_t *v);

    /** Register a computed scalar (evaluated at dump time). */
    void addScalarFn(const std::string &name,
                     std::function<double()> fn);

    /** Register a running sample statistic. */
    void addSample(const std::string &name, const SampleStat *s);

    /** Register a histogram (dumped with p50/p95/p99). */
    void addHistogram(const std::string &name, const Histogram *h);

    /** Register a computed sample statistic / histogram (evaluated
     * at dump time), for values kept in parts and merged on read. */
    void addSampleFn(const std::string &name,
                     std::function<SampleStat()> fn);
    void addHistogramFn(const std::string &name,
                        std::function<Histogram()> fn);

    bool has(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Scalar value of @p name (counter or computed scalar); panics
     * on unknown names or non-scalar entries. Test hook. */
    double scalar(const std::string &name) const;

    std::size_t size() const { return entries_.size(); }

    /**
     * Dump every entry as one flat JSON object keyed by dotted name.
     * Scalars dump as numbers; samples as {count,sum,min,max,mean};
     * histograms additionally carry p50/p95/p99, the overflow count
     * and the raw buckets.
     */
    void dumpJson(std::ostream &os) const;

  private:
    using Entry = std::variant<const std::uint64_t *,
                               std::function<double()>,
                               const SampleStat *, const Histogram *,
                               std::function<SampleStat()>,
                               std::function<Histogram()>>;

    void insert(const std::string &name, Entry e);

    /** Ordered map: dump order == lexicographic name order. */
    std::map<std::string, Entry> entries_;
};

} // namespace ocor

#endif // OCOR_COMMON_STATS_REGISTRY_HH
