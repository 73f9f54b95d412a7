#include "sim/crashdump.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/trace.hh"

namespace ocor
{

namespace crashdump
{

namespace
{

constexpr int kLineCap = 240;
constexpr std::size_t kTraceTail = 32;

/** One in-flight simulation: a pre-rendered repro line. len is the
 * slot state: 0 free, -1 being claimed, >0 ready with that many
 * bytes. The handler only reads slots in state > 0. */
struct Slot
{
    std::atomic<int> len{0};
    char line[kLineCap];
};

Slot g_slots[RunScope::kSlots];

char g_path[512] = {0};
std::atomic<bool> g_installed{false};
std::atomic<const Tracer *> g_tracer{nullptr};
std::atomic<std::uint64_t> g_runs{0};

// BEGIN signal-handler-context -- everything below this marker up to
// the matching END runs (also) inside a signal handler and must stay
// async-signal-safe: write()/open()/close() and atomics only. The
// simlint signal-unsafe rule scans this region.

/** EINTR-safe best-effort write of exactly @p len bytes. */
void
writeAll(int fd, const char *buf, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
}

void
writeStr(int fd, const char *s)
{
    std::size_t n = 0;
    while (s[n] != '\0')
        ++n;
    writeAll(fd, s, n);
}

/** Hand-rolled unsigned decimal formatting (no snprintf). */
void
writeDec(int fd, std::uint64_t v)
{
    char buf[24];
    int i = sizeof(buf);
    do {
        buf[--i] = static_cast<char>('0' + (v % 10));
        v /= 10;
    } while (v != 0);
    writeAll(fd, buf + i, sizeof(buf) - static_cast<std::size_t>(i));
}

const char *
sigName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGTERM:
        return "SIGTERM";
      case SIGBUS:
        return "SIGBUS";
      default:
        return "signal";
    }
}

/** The dump writer shared by the handler and dumpNow(). */
bool
writeDump(const char *why)
{
    if (g_path[0] == '\0')
        return false;
    int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    writeStr(fd, dumpHeader());
    writeStr(fd, "\nsignal=");
    writeStr(fd, why);
    writeStr(fd, "\nruns=");
    writeDec(fd, g_runs.load(std::memory_order_relaxed));
    writeStr(fd, "\n");

    for (int i = 0; i < RunScope::kSlots; ++i) {
        int len = g_slots[i].len.load(std::memory_order_acquire);
        if (len > 0 && len <= kLineCap) {
            writeAll(fd, g_slots[i].line,
                     static_cast<std::size_t>(len));
            writeStr(fd, "\n");
        }
    }

    const Tracer *tr = g_tracer.load(std::memory_order_relaxed);
    if (tr != nullptr && tr->ringCount() > 0) {
        std::size_t n = tr->ringCount();
        std::size_t from = n > kTraceTail ? n - kTraceTail : 0;
        for (std::size_t i = from; i < n; ++i) {
            const TraceRecord &r = tr->ringRecord(i);
            writeStr(fd, "trace\t");
            writeDec(fd, r.cycle);
            writeStr(fd, "\t");
            writeStr(fd, traceEvName(r.ev));
            writeStr(fd, "\t");
            writeDec(fd, r.node);
            writeStr(fd, "\t");
            writeDec(fd, r.thread);
            writeStr(fd, "\t");
            writeDec(fd, r.addr);
            writeStr(fd, "\t");
            writeDec(fd, r.a0);
            writeStr(fd, "\t");
            writeDec(fd, r.a1);
            writeStr(fd, "\n");
        }
    }
    ::close(fd);
    return true;
}

extern "C" void
crashHandler(int sig)
{
    writeDump(sigName(sig));
    // Chain to the default disposition (SA_RESETHAND already
    // restored it) so the process dies with the original signal and
    // the parent sees the real cause.
    ::raise(sig);
}

// END signal-handler-context

} // namespace

const char *
dumpHeader()
{
    return "#ocor-crash v1";
}

void
install(const std::string &path)
{
    std::strncpy(g_path, path.c_str(), sizeof(g_path) - 1);
    g_path[sizeof(g_path) - 1] = '\0';
    if (g_installed.exchange(true))
        return; // re-point only; handlers already registered

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sigemptyset(&sa.sa_mask);
    // One shot: the handler runs once, the re-raise gets the default
    // disposition. NODEFER so the re-raised signal is deliverable.
    sa.sa_flags = SA_RESETHAND | SA_NODEFER;
    for (int sig : {SIGSEGV, SIGABRT, SIGTERM, SIGBUS})
        sigaction(sig, &sa, nullptr);
}

bool
installed()
{
    return g_installed.load(std::memory_order_relaxed);
}

const char *
dumpPath()
{
    return g_path;
}

void
setTracer(const Tracer *tracer)
{
    g_tracer.store(tracer, std::memory_order_relaxed);
}

void
noteRunnerProgress(std::uint64_t runs)
{
    g_runs.store(runs, std::memory_order_relaxed);
}

std::string
reproLine(const BenchmarkProfile &profile,
          const ExperimentConfig &exp, bool ocor_enabled)
{
    const unsigned iters = exp.iterationsOverride > 0
        ? exp.iterationsOverride
        : profile.workload.iterations;
    std::ostringstream os;
    os << "repro\tbenchmark=" << profile.name
       << "\tthreads=" << exp.threads << "\titers=" << iters
       << "\tseed=" << exp.seed << "\tocor=" << (ocor_enabled ? 1 : 0);
    return os.str();
}

RunScope::RunScope(const BenchmarkProfile &profile,
                   const ExperimentConfig &exp, bool ocor_enabled)
{
    if (!installed())
        return;
    const std::string line = reproLine(profile, exp, ocor_enabled);
    if (line.size() > static_cast<std::size_t>(kLineCap))
        return;
    for (int i = 0; i < kSlots; ++i) {
        int expected = 0;
        if (g_slots[i].len.compare_exchange_strong(
                expected, -1, std::memory_order_acq_rel)) {
            std::memcpy(g_slots[i].line, line.data(), line.size());
            g_slots[i].len.store(static_cast<int>(line.size()),
                                 std::memory_order_release);
            slot_ = i;
            return;
        }
    }
    // All slots busy: this simulation goes untracked, which only
    // costs dump fidelity, never correctness.
}

RunScope::~RunScope()
{
    if (slot_ >= 0)
        g_slots[slot_].len.store(0, std::memory_order_release);
}

std::optional<ReplaySpec>
parseDump(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::string line;
    if (!std::getline(in, line) || line != dumpHeader())
        return std::nullopt;
    while (std::getline(in, line)) {
        if (line.rfind("repro\t", 0) != 0)
            continue;
        ReplaySpec spec;
        bool haveBench = false;
        std::istringstream fields(line.substr(6));
        std::string field;
        while (std::getline(fields, field, '\t')) {
            auto eq = field.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string k = field.substr(0, eq);
            const std::string v = field.substr(eq + 1);
            try {
                if (k == "benchmark") {
                    spec.benchmark = v;
                    haveBench = !v.empty();
                } else if (k == "threads") {
                    spec.threads =
                        static_cast<unsigned>(std::stoul(v));
                } else if (k == "iters") {
                    spec.iterations =
                        static_cast<unsigned>(std::stoul(v));
                } else if (k == "seed") {
                    spec.seed = std::stoull(v);
                } else if (k == "ocor") {
                    spec.ocorEnabled = v != "0";
                }
            } catch (const std::exception &) {
                return std::nullopt; // malformed numeric field
            }
        }
        if (haveBench)
            return spec;
        return std::nullopt;
    }
    return std::nullopt; // crash hit outside any simulation
}

bool
dumpNow(const char *reason)
{
    return writeDump(reason);
}

} // namespace crashdump

} // namespace ocor
