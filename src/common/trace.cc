#include "common/trace.hh"

#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/log.hh"

namespace ocor
{

const char *
traceCatName(TraceCat c)
{
    switch (c) {
      case TraceCat::Lock: return "lock";
      case TraceCat::Noc: return "noc";
      case TraceCat::Sim: return "sim";
      default: return "?";
    }
}

unsigned
parseTraceCats(const std::string &spec)
{
    unsigned mask = 0;
    std::istringstream is(spec);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= traceCatBit(TraceCat::Lock)
                | traceCatBit(TraceCat::Noc)
                | traceCatBit(TraceCat::Sim);
        } else if (tok == "lock") {
            mask |= traceCatBit(TraceCat::Lock);
        } else if (tok == "noc") {
            mask |= traceCatBit(TraceCat::Noc);
        } else if (tok == "sim") {
            mask |= traceCatBit(TraceCat::Sim);
        } else {
            ocor_fatal("unknown trace category '%s' "
                       "(expected lock, noc, sim or all)",
                       tok.c_str());
        }
    }
    return mask;
}

const char *
traceEvName(TraceEv ev)
{
    switch (ev) {
      case TraceEv::LockAcquireStart: return "LockAcquireStart";
      case TraceEv::LockTrySent: return "LockTrySent";
      case TraceEv::LockFailRecv: return "LockFailRecv";
      case TraceEv::LockSleep: return "LockSleep";
      case TraceEv::WakeupSent: return "WakeupSent";
      case TraceEv::WakeupRecv: return "WakeupRecv";
      case TraceEv::CsEnter: return "CsEnter";
      case TraceEv::CsExit: return "CsExit";
      case TraceEv::LockHandover: return "LockHandover";
      case TraceEv::PktInject: return "PktInject";
      case TraceEv::VcAlloc: return "VcAlloc";
      case TraceEv::SaGrant: return "SaGrant";
      case TraceEv::PktEject: return "PktEject";
      case TraceEv::RunBegin: return "RunBegin";
      case TraceEv::RunEnd: return "RunEnd";
      case TraceEv::WatchdogFired: return "WatchdogFired";
      default: return "?";
    }
}

TraceCat
traceEvCat(TraceEv ev)
{
    if (ev <= TraceEv::LockHandover)
        return TraceCat::Lock;
    if (ev <= TraceEv::PktEject)
        return TraceCat::Noc;
    return TraceCat::Sim;
}

Tracer::Tracer(const TraceConfig &cfg) : cfg_(cfg)
{
    if (cfg_.capacity == 0)
        ocor_fatal("Tracer: ring capacity must be positive");
    ring_.reserve(std::min<std::size_t>(cfg_.capacity, 1u << 16));
}

std::vector<TraceRecord>
Tracer::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

namespace
{

/**
 * Chrome trace-event pid/tid mapping: lock and sim events live in a
 * "threads" process keyed by thread id; NoC events live in a "noc"
 * process keyed by node id, so Perfetto shows one lane per router.
 */
constexpr int kThreadsPid = 1;
constexpr int kNocPid = 2;

/**
 * Live packet ids come from a process-global allocator, so their raw
 * values depend on everything simulated before (and concurrently
 * with) this run. Exports renumber them densely in first-appearance
 * order, which keeps same-packet events correlated while making two
 * identical runs export byte-identical files.
 */
std::unordered_map<std::uint64_t, std::uint64_t>
exportPktIds(const std::vector<TraceRecord> &recs)
{
    std::unordered_map<std::uint64_t, std::uint64_t> ids;
    std::uint64_t next = 1;
    for (const TraceRecord &r : recs)
        if (r.pkt != 0 && ids.emplace(r.pkt, next).second)
            ++next;
    return ids;
}

void
jsonCommon(std::ostream &os, const TraceRecord &r, const char *ph,
           const char *extra_args)
{
    TraceCat cat = traceEvCat(r.ev);
    const bool noc = cat == TraceCat::Noc;
    int pid = noc ? kNocPid : kThreadsPid;
    unsigned long long tid = noc
        ? static_cast<unsigned long long>(r.node)
        : (r.thread == invalidThread
               ? 0ull
               : static_cast<unsigned long long>(r.thread));

    os << "{\"name\":\"" << traceEvName(r.ev) << "\",\"cat\":\""
       << traceCatName(cat) << "\",\"ph\":\"" << ph
       << "\",\"ts\":" << r.cycle << ",\"pid\":" << pid
       << ",\"tid\":" << tid;
    if (ph[0] == 'i')
        os << ",\"s\":\"t\"";
    os << ",\"args\":{\"node\":" << r.node;
    if (r.addr != 0)
        os << ",\"addr\":" << r.addr;
    if (r.pkt != 0)
        os << ",\"pkt\":" << r.pkt;
    os << extra_args << "}}";
}

std::string
evArgs(const TraceRecord &r)
{
    std::ostringstream os;
    switch (r.ev) {
      case TraceEv::LockAcquireStart:
      case TraceEv::LockTrySent:
        os << ",\"rtr\":" << r.a0 << ",\"prog\":" << r.a1;
        break;
      case TraceEv::CsEnter:
        os << ",\"slept\":" << r.a0;
        break;
      case TraceEv::LockHandover:
        os << ",\"gap\":" << r.a1;
        break;
      case TraceEv::WakeupSent:
        os << ",\"queue\":" << r.a0;
        break;
      case TraceEv::PktInject:
      case TraceEv::VcAlloc:
      case TraceEv::SaGrant:
      case TraceEv::PktEject:
        os << ",\"msg\":" << r.a0 << ",\"val\":" << r.a1;
        break;
      default:
        if (r.a0 || r.a1)
            os << ",\"a0\":" << r.a0 << ",\"a1\":" << r.a1;
        break;
    }
    return os.str();
}

} // namespace

void
Tracer::exportChromeJson(std::ostream &os) const
{
    os << "[\n";
    // Process-name metadata so Perfetto labels the two lanes.
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
       << kThreadsPid
       << ",\"args\":{\"name\":\"threads (lock protocol)\"}},\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
       << kNocPid << ",\"args\":{\"name\":\"noc (routers)\"}}";

    const std::vector<TraceRecord> recs = snapshot();
    const auto ids = exportPktIds(recs);
    for (TraceRecord r : recs) {
        if (r.pkt != 0)
            r.pkt = ids.at(r.pkt);
        os << ",\n";
        if (r.ev == TraceEv::CsEnter) {
            // Duration slice begin: renders the CS as a bar.
            jsonCommon(os, r, "B", evArgs(r).c_str());
        } else if (r.ev == TraceEv::CsExit) {
            jsonCommon(os, r, "E", "");
        } else {
            jsonCommon(os, r, "i", evArgs(r).c_str());
        }
    }
    os << "\n]\n";
}

} // namespace ocor
