#include "sim/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/crc32.hh"
#include "common/log.hh"

namespace ocor
{

std::string
CacheKey::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\t%u\t%d\t%u\t%llu\t%u\t%u",
                  benchmark.c_str(), threads, ocorEnabled ? 1 : 0,
                  iterations,
                  static_cast<unsigned long long>(seed), rtrLevels,
                  ruleMask);
    return buf;
}

CacheKey
makeCacheKey(const BenchmarkProfile &profile,
             const ExperimentConfig &exp, bool ocor_enabled)
{
    // The key names only an override's level count and rule bits.
    // The other knobs act on baseline runs too (maxSpinCount is every
    // run's spin budget), so refuse them rather than serve the
    // default run's row.
    const OcorConfig def;
    const OcorConfig &oc = exp.ocorOverrideSet ? exp.ocorOverride : def;
    if (oc.maxSpinCount != def.maxSpinCount ||
        oc.numProgressLevels != def.numProgressLevels ||
        oc.progressSegmentWidth != def.progressSegmentWidth)
        ocor_panic("makeCacheKey: the OCOR override of %s changes "
                   "maxSpinCount, numProgressLevels or "
                   "progressSegmentWidth, which the key does not name",
                   profile.name.c_str());

    CacheKey key;
    key.benchmark = profile.name;
    // Ledger runs carry COH cause counters a plain run lacks; a name
    // suffix keeps them from cross-satisfying.
    if (exp.cohLedger)
        key.benchmark += "+ledger";
    key.threads = exp.threads;
    key.ocorEnabled = ocor_enabled;
    key.iterations = exp.iterationsOverride;
    key.seed = exp.seed;
    if (!ocor_enabled) {
        // Levels and rules act only with OCOR on: use the
        // default-config key so level/rule sweeps reuse one baseline
        // simulation (CacheKey's defaults == OcorConfig's defaults).
        return key;
    }
    key.rtrLevels = oc.numRtrLevels;
    key.ruleMask = (oc.ruleSlowProgressFirst ? 1u : 0)
        | (oc.ruleLockFirst ? 2u : 0)
        | (oc.ruleLeastRtrFirst ? 4u : 0)
        | (oc.ruleWakeupLast ? 8u : 0);
    return key;
}

std::string
runLabel(const BenchmarkProfile &profile, const ExperimentConfig &exp,
         bool ocor_enabled)
{
    std::string label =
        makeCacheKey(profile, exp, ocor_enabled).toString();
    std::replace(label.begin(), label.end(), '\t', ' ');
    return label;
}

const char *
ResultCache::headerLine()
{
    return "#ocor-results v3";
}

ResultCache::ResultCache(std::string path) : path_(std::move(path)) {}

ResultCache::~ResultCache()
{
    flush();
}

namespace
{

/**
 * The metrics part of a journal row: every RunMetrics field in list
 * order, each after a tab. perThread is written as its length, then
 * each entry's counters. to_chars writes a double's shortest digits
 * that read back exactly; unary + writes a bool as 0 or 1.
 */
std::string
metricsToTsv(const RunMetrics &m)
{
    std::string row;
    auto put = [&row](auto v) {
        char buf[32];
        row += '\t';
        row.append(buf, std::to_chars(buf, buf + sizeof buf, +v).ptr);
    };
    RunMetrics::forEachField([&](const char *, auto f) {
        if constexpr (isPerThreadField<decltype(f)>) {
            put(m.perThread.size());
            for (const ThreadCounters &t : m.perThread)
                ThreadCounters::forEachField(
                    [&](const char *, auto g) { put(t.*g); });
        } else {
            put(m.*f);
        }
    });
    return row;
}

/** The inverse of metricsToTsv: nullopt unless @p text is exactly one
 * such row, every field wholly a number of its field's type. */
std::optional<RunMetrics>
metricsFromTsv(std::string_view text)
{
    const char *p = text.data();
    const char *const end = p + text.size();
    bool ok = true;
    auto read = [&](auto &v) {
        using T = std::remove_reference_t<decltype(v)>;
        // from_chars takes no bool: read 0 or 1 as unsigned.
        std::conditional_t<std::is_same_v<T, bool>, unsigned, T> x{};
        ok = ok && p != end && *p == '\t';
        if (!ok)
            return;
        const auto r = std::from_chars(p + 1, end, x);
        ok = r.ec == std::errc() && (!std::is_same_v<T, bool> || x <= 1);
        v = static_cast<T>(x);
        p = r.ptr;
    };
    RunMetrics m;
    RunMetrics::forEachField([&](const char *, auto f) {
        if constexpr (isPerThreadField<decltype(f)>) {
            std::uint64_t n = 0;
            read(n);
            for (std::uint64_t i = 0; i < n && ok; ++i) {
                ThreadCounters &t = m.perThread.emplace_back();
                ThreadCounters::forEachField(
                    [&](const char *, auto g) { read(t.*g); });
            }
        } else {
            read(m.*f);
        }
    });
    if (!ok || p != end)
        return std::nullopt;
    return m;
}

/** Split "key-fields \t metrics-fields" on the 7th tab. */
std::optional<std::pair<std::string, RunMetrics>>
parsePayload(const std::string &line)
{
    std::size_t pos = 0;
    for (int tabs = 0; tabs < 7; ++tabs) {
        pos = line.find('\t', pos);
        if (pos == std::string::npos)
            return std::nullopt;
        ++pos;
    }
    auto m = metricsFromTsv(std::string_view(line).substr(pos - 1));
    if (!m)
        return std::nullopt;
    return std::make_pair(line.substr(0, pos - 1), std::move(*m));
}

/** CRC32 stamp of a row payload (the "key \t metrics" text). */
std::uint32_t
payloadCrc(const std::string &payload)
{
    return crc32Update(0, payload.data(), payload.size());
}

/** Full journal row: "<crc-8-hex> \t key-fields \t metrics". */
std::string
formatRow(const std::string &payload)
{
    char crc[12];
    std::snprintf(crc, sizeof(crc), "%08x", payloadCrc(payload));
    return std::string(crc) + '\t' + payload;
}

/**
 * Validate one journal row: 8 hex digits, a tab, then a payload
 * whose CRC32 matches the stamp. Returns the parsed payload or
 * nullopt for torn/corrupt rows.
 */
std::optional<std::pair<std::string, RunMetrics>>
parseRow(const std::string &line)
{
    if (line.size() < 10 || line[8] != '\t')
        return std::nullopt;
    char *end = nullptr;
    const std::string crcField = line.substr(0, 8);
    unsigned long stamp = std::strtoul(crcField.c_str(), &end, 16);
    if (end == nullptr || *end != '\0')
        return std::nullopt;
    const std::string payload = line.substr(9);
    if (payloadCrc(payload) != static_cast<std::uint32_t>(stamp))
        return std::nullopt;
    return parsePayload(payload);
}

/** Write all of @p data to @p fd, retrying on EINTR; false (errno
 * set) on any other error. */
bool
writeAll(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        ssize_t w = ::write(fd, p, left);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        left -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Owns a file descriptor; closing it also drops a flock on it. */
struct Fd
{
    explicit Fd(int f) : fd(f) {}
    ~Fd()
    {
        if (fd >= 0)
            ::close(fd);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    const int fd;
};

/** What one read of a journal file found. */
struct Journal
{
    std::map<std::string, RunMetrics> rows; ///< a key's last row wins
    std::uint64_t rowsRead = 0; ///< valid rows, repeated keys included
    std::uint64_t badRows = 0;  ///< rows failing the stamp or the parse
    bool foreign = false;       ///< no current header: nothing read
};

/**
 * Read the journal at @p path into @p j. A missing file reads as
 * empty; false (errno set) when the file exists but cannot be read.
 */
bool
readJournal(const std::string &path, Journal &j)
{
    const Fd in(::open(path.c_str(), O_RDONLY));
    if (in.fd < 0)
        return errno == ENOENT;
    std::string text;
    char buf[1 << 16];
    for (ssize_t n; (n = ::read(in.fd, buf, sizeof buf)) != 0;) {
        if (n < 0 && errno != EINTR)
            return false;
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
    }
    if (text.empty())
        return true;

    // A file without this version's header (headerless, foreign or
    // from a future version) has nothing loadable.
    const std::size_t headerEnd = text.find('\n');
    if (text.compare(0, headerEnd, ResultCache::headerLine()) != 0) {
        j.foreign = true;
        return true;
    }
    // One row per line; the last line may lack its newline (a journal
    // appended to by an older version can also end in a torn row).
    std::size_t pos =
        headerEnd == std::string::npos ? text.size() : headerEnd + 1;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        if (auto kv = parseRow(text.substr(pos, eol - pos))) {
            j.rows.insert_or_assign(std::move(kv->first),
                                    std::move(kv->second));
            ++j.rowsRead;
        } else {
            ++j.badRows;
        }
        pos = eol + 1;
    }
    return true;
}

/** The directory holding @p path, as open() takes it. */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash + 1);
}

} // namespace

void
ResultCache::loadLocked() const
{
    if (loaded_)
        return;
    loaded_ = true;
    if (path_.empty())
        return;

    // A flush renames a whole file into place, so a reader never sees
    // a partial one and takes no lock.
    Journal j;
    if (!readJournal(path_, j))
        ocor_warn("ResultCache: cannot read %s: %s; treating as empty",
                  path_.c_str(), std::strerror(errno));
    else if (j.foreign)
        ocor_warn("ResultCache: %s does not start with '%s'; "
                  "treating as empty",
                  path_.c_str(), headerLine());
    mem_ = std::move(j.rows);
    rowsLoaded_ = j.rowsRead;
    parseErrors_ = j.badRows;
}

void
ResultCache::flushLocked()
{
    if (path_.empty() || pending_ == 0) {
        pending_ = 0;
        return;
    }

    // The directory's descriptor serializes flushes across processes
    // (closing it drops the flock) and makes the rename durable.
    const Fd dir(::open(dirOf(path_).c_str(), O_RDONLY | O_DIRECTORY));
    if (dir.fd < 0 || ::flock(dir.fd, LOCK_EX) != 0) {
        ocor_warn("ResultCache: cannot lock the directory of %s: %s",
                  path_.c_str(), std::strerror(errno));
        return;
    }
    // Keep the rows other processes wrote since this one loaded. A
    // snapshot taken without them would shrink the journal, so an
    // unreadable journal is left as it is.
    Journal disk;
    if (!readJournal(path_, disk)) {
        ocor_warn("ResultCache: cannot read %s: %s; not rewriting it",
                  path_.c_str(), std::strerror(errno));
        return;
    }
    mem_.merge(disk.rows); // a key this cache holds keeps its row

    std::string out = std::string(headerLine()) + '\n';
    for (const auto &[key, metrics] : mem_)
        out += formatRow(key + metricsToTsv(metrics)) + '\n';
    const std::string tmp = path_ + ".tmp";
    const Fd file(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (file.fd < 0 || !writeAll(file.fd, out) || ::fsync(file.fd) != 0 ||
        ::rename(tmp.c_str(), path_.c_str()) != 0) {
        ocor_warn("ResultCache: cannot write %s: %s", tmp.c_str(),
                  std::strerror(errno));
        ::unlink(tmp.c_str());
        return;
    }
    ::fsync(dir.fd);
    pending_ = 0;
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    flushLocked();
}

std::optional<RunMetrics>
ResultCache::lookup(const CacheKey &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    auto it = mem_.find(key.toString());
    if (it == mem_.end())
        return std::nullopt;
    return it->second;
}

void
ResultCache::storeLocked(const std::string &ks,
                         const RunMetrics &metrics)
{
    mem_[ks] = metrics;
    if (++pending_ >= kFlushBatch)
        flushLocked();
}

void
ResultCache::store(const CacheKey &key, const RunMetrics &metrics)
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    storeLocked(key.toString(), metrics);
}

RunMetrics
ResultCache::get(const BenchmarkProfile &profile,
                 const ExperimentConfig &exp, bool ocor_enabled,
                 Simulator::Options opts)
{
    const CacheKey key = makeCacheKey(profile, exp, ocor_enabled);
    const std::string ks = key.toString();

    std::promise<RunMetrics> prom;
    std::shared_future<RunMetrics> fut;
    bool runner = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        loadLocked();
        auto hit = mem_.find(ks);
        if (hit != mem_.end())
            return hit->second;
        auto inf = inflight_.find(ks);
        if (inf != inflight_.end()) {
            // Someone else is already simulating this key: wait for
            // their result instead of recomputing it.
            fut = inf->second;
        } else {
            runner = true;
            fut = prom.get_future().share();
            inflight_.emplace(ks, fut);
        }
    }
    if (!runner)
        return fut.get();

    // We won the race: simulate outside the lock.
    RunMetrics m = runOnce(profile, exp, ocor_enabled, opts);
    simulationsRun_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(mu_);
        // An incomplete run (deadline, hang, maxCycles) is never
        // cached: its metrics are partial. Losers of the in-flight
        // race still receive them.
        if (isComplete(m))
            storeLocked(ks, m);
        inflight_.erase(ks);
    }
    prom.set_value(m);
    return m;
}

std::uint64_t
ResultCache::rowsLoaded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return rowsLoaded_;
}

std::uint64_t
ResultCache::parseErrors() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return parseErrors_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return mem_.size();
}

void
ResultCache::registerStats(StatsRegistry &reg,
                           const std::string &prefix)
{
    reg.addScalarFn(prefix + ".rows_loaded", [this]() {
        return static_cast<double>(rowsLoaded());
    });
    reg.addScalarFn(prefix + ".parse_errors", [this]() {
        return static_cast<double>(parseErrors());
    });
    reg.addScalarFn(prefix + ".entries", [this]() {
        return static_cast<double>(size());
    });
    reg.addScalarFn(prefix + ".simulations_run", [this]() {
        return static_cast<double>(simulationsRun());
    });
}

} // namespace ocor
