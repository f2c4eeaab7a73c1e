#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace hcc::obs::json {

const Value *
Value::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Nesting limit: stats dumps and traces are at most ~4 deep. */
constexpr int kMaxDepth = 64;

class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {}

    bool
    run(Value &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    eat(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("bad literal, expected '") + word
                        + "'");
        pos_ += len;
        return true;
    }

    bool
    hex4(unsigned &out)
    {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                return fail("truncated \\u escape");
            const char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    /** Append code point as UTF-8 (surrogate pairs not recombined). */
    static void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xc0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            s += static_cast<char>(0xe0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return fail("expected '\"'");
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    number(Value &out)
    {
        const std::size_t start = pos_;
        if (eat('-')) {}
        while (pos_ < text_.size()
               && std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (eat('.')) {
            while (pos_ < text_.size()
                   && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size()
            && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size()
                && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size()
                   && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        out.number = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0') {
            pos_ = start;
            return fail("bad number");
        }
        // strtod turns a literal beyond a double's range into ±inf,
        // and inf against inf compares as NaN drift: never a change.
        if (!std::isfinite(out.number)) {
            pos_ = start;
            return fail("number out of range");
        }
        out.type = Value::Type::Number;
        return true;
    }

    bool
    value(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case '{': return object(out, depth);
          case '[': return array(out, depth);
          case '"':
            out.type = Value::Type::String;
            return string(out.string);
          case 't':
            out.type = Value::Type::Bool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.type = Value::Type::Bool;
            out.boolean = false;
            return literal("false", 5);
          case 'n':
            out.type = Value::Type::Null;
            return literal("null", 4);
          default:
            return number(out);
        }
    }

    bool
    object(Value &out, int depth)
    {
        out.type = Value::Type::Object;
        eat('{');
        skipWs();
        if (eat('}'))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (!eat(':'))
                return fail("expected ':'");
            skipWs();
            Value v;
            if (!value(v, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (eat(','))
                continue;
            if (eat('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(Value &out, int depth)
    {
        out.type = Value::Type::Array;
        eat('[');
        skipWs();
        if (eat(']'))
            return true;
        while (true) {
            skipWs();
            Value v;
            if (!value(v, depth + 1))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (eat(','))
                continue;
            if (eat(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &error)
{
    return Parser(text, error).run(out);
}

} // namespace hcc::obs::json
