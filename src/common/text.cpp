#include "common/text.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hcc {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
csvField(std::string_view field)
{
    if (field.find_first_of(",\"\r\n") == std::string_view::npos)
        return std::string(field);
    std::string out;
    out.reserve(field.size() + 2);
    out += '"';
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
formatG(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::string
formatShortest(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
trim(std::string_view s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return std::string(s.substr(begin, end - begin + 1));
}

std::vector<std::string>
splitList(std::string_view csv)
{
    std::vector<std::string> out;
    while (true) {
        const auto comma = csv.find(',');
        std::string item = trim(csv.substr(0, comma));
        if (!item.empty())
            out.push_back(std::move(item));
        if (comma == std::string_view::npos)
            return out;
        csv.remove_prefix(comma + 1);
    }
}

Result<double>
parseFinite(std::string_view text)
{
    const std::string s(text);
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || end != s.c_str() + s.size())
        return errorf(ErrorCode::ParseError, "'%s' is not a number",
                      s.c_str());
    if (!std::isfinite(v))
        return errorf(ErrorCode::ParseError,
                      "'%s' is not a finite number", s.c_str());
    return v;
}

} // namespace hcc
