/**
 * @file
 * Text helpers shared by every output writer and list parser: JSON
 * string escaping, RFC-4180 CSV field quoting, the two deterministic
 * renderings of a double, comma-list splitting, and the one parser
 * each of a floating-point input, an integer input and a comma list.
 * The parsers return a Result and never throw.
 */

#ifndef HCC_COMMON_TEXT_HPP
#define HCC_COMMON_TEXT_HPP

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

namespace hcc {

/** JSON string-body escaping: quote, backslash, and every control
 *  character (\n \r \t by name, the rest as \u00XX). */
std::string jsonEscape(std::string_view s);

/** RFC-4180 field quoting: a field holding a comma, quote, CR or LF
 *  is wrapped in quotes with embedded quotes doubled. */
std::string csvField(std::string_view field);

/** printf "%g": six significant digits ("1", "0.25", "1e-05"). */
std::string formatG(double v);

/** Shortest decimal that round-trips to @p v ("160", "150.25"). */
std::string formatShortest(double v);

/** @p s without leading/trailing spaces, tabs and CRs. */
std::string trim(std::string_view s);

/** Comma-split @p csv; items are trimmed and empty items dropped. */
std::vector<std::string> splitList(std::string_view csv);

/**
 * All of @p text as a finite double (strtod syntax; leading spaces
 * allowed, nothing after the number).  A ParseError for anything
 * else, including "nan", "inf" and a value too large for a double:
 * range checks written as `v <= 0.0` let NaN through, so every
 * floating-point flag and file field is read here.
 */
Result<double> parseFinite(std::string_view text);

/** parseFinite(@p text), or a ParseError saying the value is not
 *  @p rule ("positive") when @p in_range rejects it. */
template <typename Pred>
Result<double>
parseFiniteIf(std::string_view text, Pred in_range, const char *rule)
{
    auto v = parseFinite(text);
    if (v.ok() && !in_range(*v))
        return errorf(ErrorCode::ParseError, "'%s' is not %s",
                      std::string(text).c_str(), rule);
    return v;
}

/**
 * All of @p text as a decimal integer in [@p lo, @p hi]:
 * std::from_chars over the whole token, so no spaces, no '+', no
 * sign for an unsigned T and nothing after the digits.  A ParseError
 * for anything else, including "-1" as a seed, "1e3", "3abc" and a
 * value out of range: std::stoi and friends take a numeric prefix
 * and std::stoull wraps a negative value, so every integer flag and
 * file field is read here.
 */
template <std::integral T>
Result<T>
parseInt(std::string_view text, T lo = std::numeric_limits<T>::min(),
         T hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last || v < lo || v > hi)
        return errorf(ErrorCode::ParseError,
                      "'%s' is not an integer in [%s, %s]",
                      std::string(text).c_str(),
                      std::to_string(lo).c_str(),
                      std::to_string(hi).c_str());
    return v;
}

/**
 * Every item of comma list @p csv (splitList) through @p item, which
 * returns a Result: the values in order, the first bad item's
 * Status, or a ParseError when the list has no items.
 */
template <typename Fn,
          typename T = typename std::invoke_result_t<
              Fn &, const std::string &>::value_type>
Result<std::vector<T>>
parseList(std::string_view csv, Fn &&item)
{
    std::vector<T> out;
    for (const std::string &s : splitList(csv)) {
        auto v = item(s);
        if (!v.ok())
            return v.status();
        out.push_back(v.take());
    }
    if (out.empty())
        return errorf(ErrorCode::ParseError, "empty list '%s'",
                      std::string(csv).c_str());
    return out;
}

} // namespace hcc

#endif // HCC_COMMON_TEXT_HPP
