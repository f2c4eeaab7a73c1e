/**
 * @file
 * Text helpers shared by every output writer and list parser: JSON
 * string escaping, RFC-4180 CSV field quoting, the two deterministic
 * renderings of a double, and comma-list splitting.
 */

#ifndef HCC_COMMON_TEXT_HPP
#define HCC_COMMON_TEXT_HPP

#include <string>
#include <string_view>
#include <vector>

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

} // namespace hcc

#endif // HCC_COMMON_TEXT_HPP
