/**
 * @file
 * Typed, recoverable error reporting: hcc::Status and hcc::Result<T>.
 *
 * The error-handling split (gem5-flavoured, see log.hpp):
 *  - Status / Result<T>  — *recoverable* failures the caller is
 *    expected to handle: an authentication tag mismatch on the CC
 *    transfer path, a failed SPDM handshake, and every piece of user
 *    input (flags, spec, grid, stats and snapshot files).  Every
 *    parser of user input returns one; none throws.  These travel as
 *    values, carry a machine-readable ErrorCode plus a human message,
 *    and never unwind the stack.  The CLI prints a bad input as one
 *    `error:` line and exits 2.
 *  - FatalError (fatal()) — misuse found while a run executes (an
 *    unknown app, no UVM variant, an unwritable output).  fatal()
 *    only throws; its one catcher reports the message once (the CLI
 *    entry point, or a grid cell's FAIL row).
 *  - panic()/HCC_ASSERT — programmer misuse / simulator bugs; aborts.
 *
 * Accessing the value of an error Result is programmer misuse and
 * panics, so a forgotten `.ok()` check fails loudly in tests instead
 * of silently reading a default-constructed value.
 */

#ifndef HCC_COMMON_STATUS_HPP
#define HCC_COMMON_STATUS_HPP

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "common/log.hpp"

namespace hcc {

/** Machine-readable category of a Status. */
enum class ErrorCode
{
    Ok,
    InvalidArgument,    //!< caller passed a semantically bad value
    ParseError,         //!< malformed text input (spec/stats/flag)
    IoError,            //!< file missing, unreadable or unwritable
    NotFound,           //!< named entity does not exist
    IntegrityError,     //!< authentication/decryption failure
    HandshakeError,     //!< SPDM/attestation session setup failure
    ResourceExhausted,  //!< a bounded pool ran dry
    RetriesExhausted,   //!< recovery gave up after bounded retries
    Internal,           //!< unexpected but reportable condition
};

/** Canonical name of an error code. */
inline const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok: return "ok";
      case ErrorCode::InvalidArgument: return "invalid-argument";
      case ErrorCode::ParseError: return "parse-error";
      case ErrorCode::IoError: return "io-error";
      case ErrorCode::NotFound: return "not-found";
      case ErrorCode::IntegrityError: return "integrity-error";
      case ErrorCode::HandshakeError: return "handshake-error";
      case ErrorCode::ResourceExhausted: return "resource-exhausted";
      case ErrorCode::RetriesExhausted: return "retries-exhausted";
      case ErrorCode::Internal: return "internal";
    }
    return "?";
}

/**
 * The outcome of a fallible operation: Ok, or an ErrorCode plus a
 * human-readable message.  Cheap to move, comparable on code.
 */
class Status
{
  public:
    /** Ok status. */
    Status() = default;

    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    [[nodiscard]] bool ok() const { return code_ == ErrorCode::Ok; }

    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "parse-error: line 3: unknown key 'bogus'" (or "ok"). */
    std::string
    toString() const
    {
        if (ok())
            return "ok";
        return std::string(errorCodeName(code_)) + ": " + message_;
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/** printf-style Status construction. */
__attribute__((format(printf, 2, 3))) inline Status
errorf(ErrorCode code, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string msg(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(msg.data(), msg.size() + 1, fmt, ap2);
    va_end(ap2);
    return Status(code, std::move(msg));
}

/**
 * A value or an error Status.  The simulator's typed replacement for
 * bool returns and throw-on-parse-error.
 *
 * @code
 *   Result<AppSpec> r = parseSpecText(text);
 *   if (!r.ok())
 *       return r.status();   // propagate
 *   use(r.value());
 * @endcode
 */
template <typename T>
class Result
{
  public:
    using value_type = T;

    /** Success. */
    Result(T value) : value_(std::move(value)) {}

    /** Failure; @p status must not be Ok (programmer misuse). */
    Result(Status status) : status_(std::move(status))
    {
        HCC_ASSERT(!status_.ok(),
                   "Result built from an Ok status without a value");
    }

    [[nodiscard]] bool ok() const { return value_.has_value(); }

    const Status &status() const { return status_; }

    /** The value; panics when called on an error (check ok() first). */
    T &
    value()
    {
        HCC_ASSERT(ok(), status_.toString().c_str());
        return *value_;
    }

    const T &
    value() const
    {
        HCC_ASSERT(ok(), status_.toString().c_str());
        return *value_;
    }

    /** Move the value out (panics on error). */
    T
    take()
    {
        HCC_ASSERT(ok(), status_.toString().c_str());
        return std::move(*value_);
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

/**
 * Move @p parsed's value into @p out, or return its error and leave
 * @p out untouched: the one step that writes a parsed input field.
 */
template <typename Out, typename T>
Status
store(Out &out, Result<T> parsed)
{
    if (!parsed.ok())
        return parsed.status();
    out = parsed.take();
    return {};
}

} // namespace hcc

#endif // HCC_COMMON_STATUS_HPP
