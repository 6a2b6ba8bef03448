#include "core/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace polymath {

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(needed > 0 ? static_cast<size_t>(needed) : 0, '\0');
    if (needed > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

namespace {

std::string
toCharsFloat(double value, std::chars_format fmt, int precision)
{
    // to_chars with an explicit precision is specified to produce the
    // same characters printf would under the "C" locale ('g'/'f'
    // conversion), making the result locale-independent by construction.
    // Non-finite values render as printf's "inf"/"-inf"/"nan".
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value < 0 ? "-inf" : "inf";
    char buf[512]; // %f of 1e308 needs ~310 characters
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), value, fmt, precision);
    if (ec != std::errc{})
        return "?"; // cannot happen with the buffer above
    return std::string(buf, ptr);
}

} // namespace

std::string
formatG(double value, int precision)
{
    return toCharsFloat(value, std::chars_format::general, precision);
}

std::string
formatF(double value, int precision)
{
    return toCharsFloat(value, std::chars_format::fixed, precision);
}

void
appendInt(std::string &out, int64_t value)
{
    char buf[24]; // "-9223372036854775808" is 20 bytes
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
join(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

int64_t
countCodeLines(const std::string &source, const std::string &line_comment)
{
    int64_t count = 0;
    for (const auto &raw : split(source, '\n')) {
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        if (!line_comment.empty() && line.rfind(line_comment, 0) == 0)
            continue;
        ++count;
    }
    return count;
}

} // namespace polymath
