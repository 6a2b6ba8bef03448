/**
 * @file
 * Minimal JSON value, parser, and locale-independent number emission
 * (no external dependencies), shared by the srDFG serializer, the pmcd
 * wire protocol, the bench artifact pipeline, and tools/bench_compare.
 *
 * Parsing and emission both go through std::from_chars/std::to_chars,
 * so neither consults the global locale (DESIGN.md §"Locale"): "1.5"
 * parses and prints as "1.5" even under a comma-decimal locale.
 */
#ifndef POLYMATH_CORE_JSON_H_
#define POLYMATH_CORE_JSON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace polymath::json {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/** One JSON value; accessors throw UserError on a type mismatch. */
struct Value
{
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        data = nullptr;

    bool isNull() const
    {
        return std::holds_alternative<std::nullptr_t>(data);
    }
    double num() const;
    /** The number as an integer. @throws UserError unless it is
     *  integral and within ±kMaxExactInt, so the conversion is always
     *  defined and exact. */
    int64_t asInt() const;
    const std::string &str() const;
    const Array &arr() const;
    const Object &obj() const;

    /** Member lookup; @throws UserError when @p key is absent. */
    const Value &at(const std::string &key) const;

    /** True when this is an object containing @p key. */
    bool has(const std::string &key) const;
};

/** Deepest array/object nesting parse() accepts. The parser recurses
 *  once per level, so this bounds its stack use on hostile input. The
 *  deepest documents the stack writes are srDFG graphs, whose index
 *  expressions nest two levels per operator (38 for
 *  examples/pmlang/brain_stimulation.pm); artifacts and wire lines stay
 *  under 5. */
inline constexpr int kMaxDepth = 512;

/** 2^53: the largest magnitude below which every integer is exactly a
 *  double, and so the range Value::asInt() accepts. */
inline constexpr int64_t kMaxExactInt = int64_t{1} << 53;

/** Parses @p text as one JSON document. @throws UserError on malformed
 *  input (including trailing characters) and on nesting deeper than
 *  kMaxDepth. */
Value parse(const std::string &text);

/** Receives one object member; it may move from @p value. */
using MemberFn = std::function<void(std::string &key, Value &value)>;

/**
 * Parses @p text, which must be one JSON object, and calls @p member for
 * each member in document order instead of collecting them into an
 * Object: a decoder that reads a fixed set of fields builds no map. A
 * repeated key is reported each time. @throws UserError as parse() does,
 * and with "json: expected object" for any other well-formed document.
 */
void parseMembers(const std::string &text, const MemberFn &member);

/**
 * Locale-independent double → JSON. to_chars emits the shortest decimal
 * string that round-trips to the same bits (so -0.0, subnormals and
 * 1e308 all survive), where printf %g goes through the C locale and
 * can emit comma decimals. Infinities and NaN are not representable as
 * JSON numbers, so they travel as the strings "inf"/"-inf"/"nan".
 */
std::string numberToJson(double value);

/** Inverse of numberToJson: a plain number or one of the non-finite
 *  marker strings. */
double numberFromJson(const Value &v);

/**
 * Appends @p s to @p out as a JSON string literal. A double quote or
 * backslash gets a backslash before it, '\n', '\t' and '\r' use their
 * short escapes, and every other control character (below 0x20)
 * becomes \u00XX; all other bytes, UTF-8 included, are copied as they
 * are. So a quoted string never holds a raw newline, the invariant the
 * JSON-line service protocol's framing depends on (docs/SERVICE.md).
 * Runs of bytes that need no escape are copied whole.
 */
void appendQuoted(std::string &out, std::string_view s);

/** appendQuoted() into a fresh string. */
std::string quote(std::string_view s);

} // namespace polymath::json

#endif // POLYMATH_CORE_JSON_H_
