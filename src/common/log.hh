/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic() signals an internal simulator bug and aborts; fatal() signals
 * a user/configuration error and exits cleanly with an error code.
 */

#ifndef OCOR_COMMON_LOG_HH
#define OCOR_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace ocor
{

/** Verbosity levels for runtime messages. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Process-wide verbosity; default shows warnings and informs. */
LogLevel &logLevel();

/**
 * Names the run the calling thread simulates in every panic and
 * fatal message, for the scope's lifetime (runOnce() opens one), so
 * a failure inside a parallel sweep says which run to rerun.
 */
class RunLabelScope
{
  public:
    explicit RunLabelScope(std::string label);
    ~RunLabelScope();

    RunLabelScope(const RunLabelScope &) = delete;
    RunLabelScope &operator=(const RunLabelScope &) = delete;

  private:
    std::string prev_;
};

/** The calling thread's run label ("" outside every RunLabelScope);
 * a helper thread opens a scope with it to name the same run. */
const std::string &currentRunLabel();

namespace detail
{
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

std::string formatv(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
} // namespace detail

} // namespace ocor

/** Abort on an internal invariant violation (simulator bug). */
#define ocor_panic(...) \
    ::ocor::detail::panicImpl(__FILE__, __LINE__, \
                              ::ocor::detail::formatv(__VA_ARGS__))

/** Exit on a user-caused error (bad configuration, bad arguments). */
#define ocor_fatal(...) \
    ::ocor::detail::fatalImpl(__FILE__, __LINE__, \
                              ::ocor::detail::formatv(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define ocor_warn(...) \
    ::ocor::detail::warnImpl(::ocor::detail::formatv(__VA_ARGS__))

/** Informative status message. */
#define ocor_inform(...) \
    ::ocor::detail::informImpl(::ocor::detail::formatv(__VA_ARGS__))

#endif // OCOR_COMMON_LOG_HH
