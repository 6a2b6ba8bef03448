#include "core/json.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/error.h"
#include "core/strings.h"

namespace polymath::json {

double
Value::num() const
{
    if (!std::holds_alternative<double>(data))
        fatal("json: expected number");
    return std::get<double>(data);
}

int64_t
Value::asInt() const
{
    const double d = num();
    // The range test comes first and is false for NaN, so the cast
    // below only ever sees an exactly representable integer.
    constexpr auto kLimit = static_cast<double>(kMaxExactInt);
    if (!(std::fabs(d) <= kLimit) || d != std::floor(d))
        fatal("json: expected an integer within +/-2^53, got " +
              numberToJson(d));
    return static_cast<int64_t>(d);
}

const std::string &
Value::str() const
{
    if (!std::holds_alternative<std::string>(data))
        fatal("json: expected string");
    return std::get<std::string>(data);
}

const Array &
Value::arr() const
{
    if (!std::holds_alternative<Array>(data))
        fatal("json: expected array");
    return std::get<Array>(data);
}

const Object &
Value::obj() const
{
    if (!std::holds_alternative<Object>(data))
        fatal("json: expected object");
    return std::get<Object>(data);
}

const Value &
Value::at(const std::string &key) const
{
    const auto &o = obj();
    auto it = o.find(key);
    if (it == o.end())
        fatal("json: missing key '" + key + "'");
    return it->second;
}

bool
Value::has(const std::string &key) const
{
    if (!std::holds_alternative<Object>(data))
        return false;
    return std::get<Object>(data).count(key) > 0;
}

namespace {

/** Strings are scanned eight bytes at a time where the first byte in
 *  memory is the lowest lane of a loaded word; elsewhere byte by byte. */
constexpr bool kWordScan = std::endian::native == std::endian::little;
constexpr uint64_t kOnes = 0x0101010101010101ull;

/**
 * The high bit of each byte lane of @p w whose byte is below @p k, for
 * k <= 0x80. It is exact for the lowest such lane; a borrow can only
 * mark lanes above it, so std::countr_zero finds the first such byte.
 */
constexpr uint64_t
bytesBelow(uint64_t w, uint64_t k)
{
    return (w - kOnes * k) & ~w & (kOnes * 0x80);
}

/** True for the bytes that end a run of literal string bytes: '"' and
 *  '\\', and with @p controls also the control characters, which
 *  appendQuoted() escapes and the parser takes as they are. */
bool
endsRun(char c, bool controls)
{
    return c == '"' || c == '\\' ||
           (controls && static_cast<unsigned char>(c) < 0x20);
}

/** Index of the first byte of @p s at or after @p i that endsRun(), or
 *  s.size(). Both string codecs copy the bytes before it in one go. */
size_t
runEnd(std::string_view s, size_t i, bool controls)
{
    if constexpr (kWordScan) {
        for (; i + 8 <= s.size(); i += 8) {
            uint64_t w;
            std::memcpy(&w, s.data() + i, sizeof w);
            uint64_t hits = bytesBelow(w ^ (kOnes * '"'), 1) |
                            bytesBelow(w ^ (kOnes * '\\'), 1);
            if (controls)
                hits |= bytesBelow(w, 0x20);
            if (hits != 0)
                return i + static_cast<size_t>(std::countr_zero(hits)) / 8;
        }
    }
    while (i < s.size() && !endsRun(s[i], controls))
        ++i;
    return i;
}

/** JSON's four whitespace bytes plus '\v' and '\f', which std::isspace
 *  in the "C" locale also accepts, without consulting the locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value parse()
    {
        auto v = parseValue();
        expectEnd();
        return v;
    }

    /** parse() for a document that must be an object, handing each
     *  member to @p member instead of collecting them. */
    void parseMembers(const MemberFn &member)
    {
        if (peek() != '{') {
            parse(); // its syntax errors come first, as in parse()
            fatal("json: expected object");
        }
        ++depth_;
        forEachMember(member);
        --depth_;
        expectEnd();
    }

  private:
    void expectEnd()
    {
        skipWs();
        if (pos_ != text_.size())
            fatal("json: trailing characters");
    }

    void skipWs()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fatal("json: unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fatal(format("json: expected '%c' at offset %zu", c, pos_));
        ++pos_;
    }

    Value parseValue()
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            // Each level recurses, so bound the depth before descending.
            if (depth_ == kMaxDepth)
                fatal(format("json: nesting deeper than %d at offset %zu",
                             kMaxDepth, pos_));
            ++depth_;
            Value nested = c == '{' ? parseObject() : parseArray();
            --depth_;
            return nested;
        }
        if (c == '"')
            return Value{parseString()};
        if (c == 't') {
            literal("true");
            return Value{true};
        }
        if (c == 'f') {
            literal("false");
            return Value{false};
        }
        if (c == 'n') {
            literal("null");
            return Value{nullptr};
        }
        return parseNumber();
    }

    void literal(const char *word)
    {
        skipWs();
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fatal("json: bad literal");
            ++pos_;
        }
    }

    std::string parseString()
    {
        expect('"');
        // Reserve up to the next '"', the end of the string unless it
        // holds an escaped quote: decoding never lengthens the text.
        std::string out;
        if (const void *q = std::memchr(text_.data() + pos_, '"',
                                        text_.size() - pos_))
            out.reserve(static_cast<size_t>(static_cast<const char *>(q) -
                                            (text_.data() + pos_)));
        while (true) {
            const size_t end = runEnd(text_, pos_, false);
            out.append(text_, pos_, end - pos_);
            pos_ = end;
            if (pos_ == text_.size())
                fatal("json: unterminated string");
            if (text_[pos_] == '"')
                break;
            ++pos_; // the backslash
            if (pos_ == text_.size())
                fatal("json: bad escape");
            switch (text_[pos_++]) {
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case '/': out += '/'; break;
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case 'u': out += parseUnicodeEscape(); break;
              default: fatal("json: unsupported escape");
            }
        }
        ++pos_; // closing quote
        return out;
    }

    /** Consumes the 4 hex digits of a \\uXXXX escape (the leading
     *  "\\u" is already consumed) and returns the UTF-8 encoding.
     *  Surrogate pairs are not decoded — the service protocol only
     *  emits \\u00XX for control characters — but lone code points up
     *  to U+FFFF round-trip. */
    std::string parseUnicodeEscape()
    {
        if (pos_ + 4 > text_.size())
            fatal("json: bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fatal("json: bad \\u escape");
        }
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
        return out;
    }

    Value parseNumber()
    {
        skipWs();
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (start == pos_)
            fatal("json: expected a value");
        // from_chars, not stod: stod honors the global locale (a
        // comma-decimal locale rejects "1.5") and throws raw exceptions.
        double value = 0;
        const char *begin = text_.data() + start;
        const char *end = text_.data() + pos_;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc::result_out_of_range)
            fatal("json: number out of range: " +
                  text_.substr(start, pos_ - start));
        if (ec != std::errc{} || ptr != end)
            fatal("json: malformed number: " +
                  text_.substr(start, pos_ - start));
        return Value{value};
    }

    Value parseArray()
    {
        expect('[');
        Array out;
        if (peek() == ']') {
            ++pos_;
            return Value{std::move(out)};
        }
        while (true) {
            out.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value{std::move(out)};
        }
    }

    /** Parses an object's members, calling @p member(key, value) for
     *  each in document order. */
    template <typename Member>
    void forEachMember(Member &&member)
    {
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            Value value = parseValue();
            member(key, value);
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return;
        }
    }

    Value parseObject()
    {
        Object out;
        forEachMember([&out](std::string &key, Value &value) {
            out.emplace(std::move(key), std::move(value));
        });
        return Value{std::move(out)};
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0; ///< arrays/objects open around pos_
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

void
parseMembers(const std::string &text, const MemberFn &member)
{
    Parser(text).parseMembers(member);
}

std::string
numberToJson(double value)
{
    if (std::isnan(value))
        return "\"nan\"";
    if (std::isinf(value))
        return value < 0 ? "\"-inf\"" : "\"inf\"";
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc{})
        panic("json: double does not fit the to_chars buffer");
    return std::string(buf, ptr);
}

double
numberFromJson(const Value &v)
{
    if (std::holds_alternative<std::string>(v.data)) {
        const auto &s = std::get<std::string>(v.data);
        if (s == "nan")
            return std::numeric_limits<double>::quiet_NaN();
        if (s == "inf")
            return std::numeric_limits<double>::infinity();
        if (s == "-inf")
            return -std::numeric_limits<double>::infinity();
        fatal("json: expected a number or inf/-inf/nan, got \"" + s +
              "\"");
    }
    return v.num();
}

namespace {

void
appendEscape(std::string &out, char c)
{
    switch (c) {
      case '"': out += "\\\""; return;
      case '\\': out += "\\\\"; return;
      case '\n': out += "\\n"; return;
      case '\t': out += "\\t"; return;
      case '\r': out += "\\r"; return;
      default: break;
    }
    static const char hex[] = "0123456789abcdef";
    const auto uc = static_cast<unsigned char>(c);
    const char escape[] = {'\\', 'u', '0', '0', hex[uc >> 4], hex[uc & 0xf]};
    out.append(escape, sizeof(escape));
}

} // namespace

void
appendQuoted(std::string &out, std::string_view s)
{
    out.reserve(out.size() + s.size() + s.size() / 8 + 2);
    out += '"';
    size_t i = 0;
    while (true) {
        const size_t next = runEnd(s, i, true);
        out.append(s.data() + i, next - i);
        if (next == s.size())
            break;
        appendEscape(out, s[next]);
        i = next + 1;
    }
    out += '"';
}

std::string
quote(std::string_view s)
{
    std::string out;
    appendQuoted(out, s);
    return out;
}

} // namespace polymath::json
