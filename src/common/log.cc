#include "common/log.hh"

#include <cstdarg>
#include <cstdio>
#include <utility>

namespace ocor
{

LogLevel &
logLevel()
{
    static LogLevel level = LogLevel::Warn;
    return level;
}

namespace
{
thread_local std::string t_runLabel;

/** " in run [label]" while a RunLabelScope is open, else "". */
std::string
runSuffix()
{
    return t_runLabel.empty() ? std::string()
                              : " in run [" + t_runLabel + "]";
}
} // namespace

RunLabelScope::RunLabelScope(std::string label)
    : prev_(std::exchange(t_runLabel, std::move(label)))
{
}

RunLabelScope::~RunLabelScope() { t_runLabel = std::move(prev_); }

const std::string &
currentRunLabel()
{
    return t_runLabel;
}

namespace detail
{

std::string
formatv(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap2);
        out.resize(static_cast<size_t>(n));
    }
    va_end(ap2);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)%s\n", msg.c_str(), file,
                 line, runSuffix().c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)%s\n", msg.c_str(), file,
                 line, runSuffix().c_str());
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Inform)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace ocor
