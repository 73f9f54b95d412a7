#include "common/stats_registry.hh"

#include <cstdio>
#include <ostream>

#include "common/log.hh"

namespace ocor
{

void
StatsRegistry::insert(const std::string &name, Entry e)
{
    if (name.empty())
        ocor_panic("StatsRegistry: empty stat name");
    auto [it, fresh] = entries_.emplace(name, std::move(e));
    if (!fresh)
        ocor_panic("StatsRegistry: duplicate stat '%s'",
                   name.c_str());
}

void
StatsRegistry::addScalar(const std::string &name,
                         const std::uint64_t *v)
{
    insert(name, v);
}

void
StatsRegistry::addScalarFn(const std::string &name,
                           std::function<double()> fn)
{
    insert(name, std::move(fn));
}

void
StatsRegistry::addSample(const std::string &name, const SampleStat *s)
{
    insert(name, s);
}

void
StatsRegistry::addHistogram(const std::string &name,
                            const Histogram *h)
{
    insert(name, h);
}

void
StatsRegistry::addSampleFn(const std::string &name,
                           std::function<SampleStat()> fn)
{
    insert(name, std::move(fn));
}

void
StatsRegistry::addHistogramFn(const std::string &name,
                              std::function<Histogram()> fn)
{
    insert(name, std::move(fn));
}

bool
StatsRegistry::has(const std::string &name) const
{
    return entries_.count(name) != 0;
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, e] : entries_)
        out.push_back(name);
    return out;
}

double
StatsRegistry::scalar(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        ocor_panic("StatsRegistry: unknown stat '%s'", name.c_str());
    if (const auto *pv = std::get_if<const std::uint64_t *>(
            &it->second))
        return static_cast<double>(**pv);
    if (const auto *fn = std::get_if<std::function<double()>>(
            &it->second))
        return (*fn)();
    ocor_panic("StatsRegistry: stat '%s' is not a scalar",
               name.c_str());
}

namespace
{

/** Shortest round-trippable double; avoids locale surprises. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Trim a plain integer's ".0"-less form stays as-is; %.17g never
    // emits locale-dependent separators.
    return buf;
}

void
dumpSample(std::ostream &os, const SampleStat &s)
{
    os << "{\"count\":" << s.count() << ",\"sum\":" << num(s.sum())
       << ",\"min\":" << num(s.min()) << ",\"max\":" << num(s.max())
       << ",\"mean\":" << num(s.mean()) << "}";
}

void
dumpHistogram(std::ostream &os, const Histogram &h)
{
    const SampleStat &s = h.stat();
    os << "{\"count\":" << s.count() << ",\"min\":" << num(s.min())
       << ",\"max\":" << num(s.max()) << ",\"mean\":"
       << num(s.mean()) << ",\"p50\":" << num(h.percentile(50))
       << ",\"p95\":" << num(h.percentile(95)) << ",\"p99\":"
       << num(h.percentile(99)) << ",\"overflow\":" << h.overflow()
       << ",\"bucket_width\":" << num(h.bucketWidth())
       << ",\"buckets\":[";
    const auto &b = h.buckets();
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (i)
            os << ',';
        os << b[i];
    }
    os << "]}";
}

} // namespace

void
StatsRegistry::dumpJson(std::ostream &os) const
{
    os << "{\n";
    bool first = true;
    for (const auto &[name, e] : entries_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  \"" << name << "\": ";
        if (const auto *pv = std::get_if<const std::uint64_t *>(&e))
            os << **pv;
        else if (const auto *fn =
                     std::get_if<std::function<double()>>(&e))
            os << num((*fn)());
        else if (const auto *ps = std::get_if<const SampleStat *>(&e))
            dumpSample(os, **ps);
        else if (const auto *ph = std::get_if<const Histogram *>(&e))
            dumpHistogram(os, **ph);
        else if (const auto *fs =
                     std::get_if<std::function<SampleStat()>>(&e))
            dumpSample(os, (*fs)());
        else if (const auto *fh =
                     std::get_if<std::function<Histogram()>>(&e))
            dumpHistogram(os, (*fh)());
    }
    os << "\n}\n";
}

} // namespace ocor
