/**
 * @file
 * Minimal logging and error-reporting facilities, gem5-flavoured.
 *
 * User input (flags, spec, grid, stats and snapshot files) fails
 * through hcc::Status (status.hpp), never through fatal().  fatal() is
 * for misuse found while a run executes (an unknown app, no UVM
 * variant, an unwritable output): it throws FatalError and logs
 * nothing, so the one catcher that handles it reports it once.
 * panic() is for internal invariant violations (simulator bugs): it
 * aborts.
 */

#ifndef HCC_COMMON_LOG_HPP
#define HCC_COMMON_LOG_HPP

#include <cstdarg>
#include <optional>
#include <stdexcept>
#include <string>

namespace hcc {

/** Exception thrown by fatal() on misuse found at run time. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

enum class LogLevel { Debug, Info, Warn, Error, Silent };

/** Set the global log threshold; messages below it are dropped. */
void setLogLevel(LogLevel level);

/** Current global log threshold. */
LogLevel logLevel();

/**
 * Parse a level name ("debug", "info", "warn", "error", "silent");
 * std::nullopt on anything else.
 */
std::optional<LogLevel> parseLogLevel(const std::string &name);

/** The canonical name of a level (inverse of parseLogLevel). */
const char *logLevelName(LogLevel level);

/** printf-style logging at the given level. */
void logf(LogLevel level, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Something is suspicious but the simulation can proceed. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Misuse found at run time.  Logs nothing: the catcher reports the
 * message.
 * @throws FatalError always.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Internal invariant violation: a simulator bug. Aborts the process.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace hcc

/** Assert an internal invariant; panics with location info on failure. */
#define HCC_ASSERT(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::hcc::panic("assertion failed at %s:%d: %s (%s)",              \
                         __FILE__, __LINE__, #cond, msg);                   \
        }                                                                   \
    } while (0)

#endif // HCC_COMMON_LOG_HPP
