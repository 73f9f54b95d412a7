#include "sim/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cinttypes>
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

ResultCache::ResultCache(std::string path) : path_(std::move(path))
{
    // An empty path (or the historical /dev/null convention used by
    // --fresh) means "no journal": purely in-memory, nothing durable.
    ephemeral_ = path_.empty() || path_ == "/dev/null";
}

ResultCache::~ResultCache()
{
    flush();
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0)
        ::close(fd_);
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

} // namespace

void
ResultCache::loadLocked() const
{
    if (loaded_)
        return;
    loaded_ = true;
    if (ephemeral_)
        return;

    // Read the whole journal under the advisory lock so a writer's
    // append or compaction never interleaves with the scan (and so
    // the tail truncation below cannot race another process).
    int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        return; // no journal yet
    ::flock(fd, LOCK_EX);
    std::string text;
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        text.append(buf, static_cast<std::size_t>(n));

    const std::size_t total = text.size();
    if (total == 0) {
        ::flock(fd, LOCK_UN);
        ::close(fd);
        return;
    }

    // A file without this version's header (headerless, foreign or
    // from a future version) has nothing loadable: it loads empty
    // and the next flush rewrites it in this version's format.
    const std::size_t headerEnd = text.find('\n');
    if (text.compare(0, headerEnd, headerLine()) != 0) {
        ocor_warn("ResultCache: %s does not start with '%s'; "
                  "treating as empty",
                  path_.c_str(), headerLine());
        rewrite_ = true;
        ::flock(fd, LOCK_UN);
        ::close(fd);
        return;
    }
    std::size_t pos =
        headerEnd == std::string::npos ? total : headerEnd + 1;

    // lastGood: byte offset just past the last successfully parsed
    // row (or the header). Anything after it that fails to parse is
    // a torn/corrupt tail and is truncated away below.
    std::size_t lastGood = pos;
    while (pos < total) {
        std::size_t eol = text.find('\n', pos);
        const bool terminated = eol != std::string::npos;
        const std::size_t end = terminated ? eol : total;
        std::string line = text.substr(pos, end - pos);
        auto kv = parseRow(line);
        if (kv) {
            // Duplicate keys resolve last-write-wins: journal order
            // is append order, so the newest row is authoritative
            // and reloads are deterministic.
            mem_[kv->first] = std::move(kv->second);
            ++rowsLoaded_;
            lastGood = terminated ? end + 1 : end;
        } else {
            ++parseErrors_;
            if (terminated)
                // A corrupt row in the middle of the journal: skip
                // it (it is surfaced through parse_errors and
                // scrubbed by the next compaction) but keep reading;
                // rows after it are usually intact.
                rewrite_ = true;
        }
        pos = terminated ? eol + 1 : total;
    }

    // Heal a torn tail: a crash mid-append leaves a partial final
    // row; truncating back to the last good row loses at most one
    // unflushed batch and never the file.
    if (lastGood < total) {
        if (::truncate(path_.c_str(),
                       static_cast<off_t>(lastGood)) == 0) {
            ++tailTruncations_;
            truncatedBytes_ += total - lastGood;
            ocor_warn("ResultCache: truncated %zu torn tail bytes "
                      "from %s (%" PRIu64 " rows recovered)",
                      total - lastGood, path_.c_str(), rowsLoaded_);
        } else {
            ocor_warn("ResultCache: cannot truncate torn tail of %s: "
                      "%s", path_.c_str(), std::strerror(errno));
        }
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
}

int
ResultCache::appendFdLocked()
{
    if (fd_ < 0)
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                     0644);
    return fd_;
}

void
ResultCache::flushLocked()
{
    if (ephemeral_) {
        pending_.clear();
        rewrite_ = false;
        return;
    }
    if (rewrite_) {
        // Foreign file / corrupt-row scrub: rewrite the whole
        // journal (pending rows included) instead of appending.
        compactLocked();
        return;
    }
    if (pending_.empty())
        return;
    int fd = appendFdLocked();
    if (fd < 0) {
        ocor_warn("ResultCache: cannot write %s", path_.c_str());
        pending_.clear();
        return;
    }

    // One contiguous buffer per batch: a crash mid-write tears at
    // most this batch, and the loader truncates the partial row.
    std::string batch;
    ::flock(fd, LOCK_EX);
    if (::lseek(fd, 0, SEEK_END) == 0)
        batch = std::string(headerLine()) + '\n';
    for (const auto &row : pending_)
        batch += row + '\n';
    if (!writeAll(fd, batch))
        ocor_warn("ResultCache: write to %s failed: %s", path_.c_str(),
                  std::strerror(errno));
    ::fsync(fd);
    ::flock(fd, LOCK_UN);
    pending_.clear();
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    flushLocked();
}

void
ResultCache::compactLocked()
{
    if (ephemeral_) {
        pending_.clear();
        rewrite_ = false;
        return;
    }
    loadLocked();
    pending_.clear();

    // Deterministic output: one row per key, sorted. (The in-memory
    // index is unordered; the sort below restores a stable order.)
    std::vector<std::string> keys;
    keys.reserve(mem_.size());
    // simlint: allow(unordered-iteration) -- keys are sorted below
    for (const auto &kv : mem_)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());

    const std::string tmp = path_ + ".compact.tmp";
    int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                     0644);
    if (tfd < 0) {
        ocor_warn("ResultCache: cannot write %s", tmp.c_str());
        return;
    }
    std::string out = std::string(headerLine()) + '\n';
    for (const auto &k : keys)
        out += formatRow(k + metricsToTsv(mem_[k])) + '\n';
    const bool ok = writeAll(tfd, out);
    ::fsync(tfd);
    ::close(tfd);
    if (!ok) {
        ocor_warn("ResultCache: compaction write failed for %s",
                  tmp.c_str());
        ::unlink(tmp.c_str());
        return;
    }

    // Atomic cut-over: readers see either the old journal or the
    // complete new one, never a half-written file. The append fd is
    // re-opened afterwards so future batches land in the new inode.
    int jfd = appendFdLocked();
    if (jfd >= 0)
        ::flock(jfd, LOCK_EX);
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        ocor_warn("ResultCache: rename %s -> %s failed: %s",
                  tmp.c_str(), path_.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        if (jfd >= 0)
            ::flock(jfd, LOCK_UN);
        return;
    }
    // Durability of the rename itself: fsync the directory.
    std::string dir = ".";
    std::size_t slash = path_.find_last_of('/');
    if (slash != std::string::npos)
        dir = path_.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    if (jfd >= 0) {
        ::flock(jfd, LOCK_UN);
        ::close(jfd);
        fd_ = -1;
    }
    rewrite_ = false;
    ++compactions_;
}

void
ResultCache::compact()
{
    std::lock_guard<std::mutex> lk(mu_);
    compactLocked();
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
    pending_.push_back(formatRow(ks + metricsToTsv(metrics)));
    if (pending_.size() >= kFlushBatch)
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

std::uint64_t
ResultCache::tailTruncations() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return tailTruncations_;
}

std::uint64_t
ResultCache::truncatedBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return truncatedBytes_;
}

std::uint64_t
ResultCache::compactions() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return compactions_;
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
    reg.addScalarFn(prefix + ".tail_truncations", [this]() {
        return static_cast<double>(tailTruncations());
    });
    reg.addScalarFn(prefix + ".truncated_bytes", [this]() {
        return static_cast<double>(truncatedBytes());
    });
    reg.addScalarFn(prefix + ".compactions", [this]() {
        return static_cast<double>(compactions());
    });
    reg.addScalarFn(prefix + ".entries", [this]() {
        return static_cast<double>(size());
    });
    reg.addScalarFn(prefix + ".simulations_run", [this]() {
        return static_cast<double>(simulationsRun());
    });
}

} // namespace ocor
