/**
 * @file
 * Text helpers shared by every output writer and list parser: JSON
 * string escaping, RFC-4180 CSV field quoting, the two deterministic
 * renderings of a double, comma-list splitting, and the one parser
 * of a floating-point input.
 */

#ifndef HCC_COMMON_TEXT_HPP
#define HCC_COMMON_TEXT_HPP

#include <string>
#include <string_view>
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

} // namespace hcc

#endif // HCC_COMMON_TEXT_HPP
