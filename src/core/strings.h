/**
 * @file
 * Small string helpers shared across the stack.
 */
#ifndef POLYMATH_CORE_STRINGS_H_
#define POLYMATH_CORE_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace polymath {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Locale-independent `%.<precision>g` via std::to_chars: byte-identical
 * to printf under the "C" locale, but immune to comma-decimal locales
 * (printf's %g consults the global locale; see DESIGN.md §"Locale").
 * Report/table code must use these instead of format("%g"/"%f").
 */
std::string formatG(double value, int precision);

/** Locale-independent `%.<precision>f` via std::to_chars. */
std::string formatF(double value, int precision);

/** Appends @p value in decimal, the bytes std::to_string would make,
 *  without building a temporary string. */
void appendInt(std::string &out, int64_t value);

/** Splits @p s on @p sep; keeps empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Strips leading/trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** Joins items with @p sep. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/** Counts non-blank, non-comment-only lines of source text.
 *  @p line_comment is the comment leader ("//" or "#"). */
int64_t countCodeLines(const std::string &source,
                       const std::string &line_comment);

} // namespace polymath

#endif // POLYMATH_CORE_STRINGS_H_
