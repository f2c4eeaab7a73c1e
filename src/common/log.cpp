#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace hcc {

namespace {

// Atomic so sweep workers logging concurrently with a main-thread
// setLogLevel() race neither each other nor the CLI (--log-level is
// applied before the pool spins up, but tests flip it mid-process).
std::atomic<LogLevel> g_level{LogLevel::Warn};

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

void
emit(LogLevel level, const std::string &msg)
{
    if (level < g_level.load(std::memory_order_relaxed))
        return;
    // One fprintf per message: atomic at the stdio level, so lines
    // from concurrent sweep workers never interleave mid-line.
    std::fprintf(stderr, "[%s] %s\n", logLevelName(level),
                 msg.c_str());
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
      case LogLevel::Silent: return "silent";
    }
    return "?";
}

std::optional<LogLevel>
parseLogLevel(const std::string &name)
{
    for (LogLevel level : {LogLevel::Debug, LogLevel::Info,
                           LogLevel::Warn, LogLevel::Error,
                           LogLevel::Silent}) {
        if (name == logLevelName(level))
            return level;
    }
    return std::nullopt;
}

void
logf(LogLevel level, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    emit(level, vformat(fmt, ap));
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    emit(LogLevel::Warn, vformat(fmt, ap));
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[panic] %s\n", msg.c_str());
    // abort() skips atexit/stream teardown; flush every open stdio
    // stream first so a dying campaign worker's buffered lines (and
    // this panic message, when stderr is redirected to a full-buffered
    // file) reach the sink before the process dies.
    std::fflush(nullptr);
    std::abort();
}

} // namespace hcc
