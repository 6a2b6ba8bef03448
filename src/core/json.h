/**
 * @file
 * Minimal JSON value, parser, and locale-independent number emission
 * (no external dependencies), shared by the srDFG serializer, the bench
 * artifact pipeline, and tools/bench_compare.
 *
 * Parsing and emission both go through std::from_chars/std::to_chars,
 * so neither consults the global locale (DESIGN.md §"Locale"): "1.5"
 * parses and prints as "1.5" even under a comma-decimal locale.
 */
#ifndef POLYMATH_CORE_JSON_H_
#define POLYMATH_CORE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
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
    int64_t asInt() const { return static_cast<int64_t>(num()); }
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

/** Parses @p text as one JSON document. @throws UserError on malformed
 *  input (including trailing characters) and on nesting deeper than
 *  kMaxDepth. */
Value parse(const std::string &text);

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

/** JSON string literal with escaping for '"', '\\', and '\n'. */
std::string quote(const std::string &s);

} // namespace polymath::json

#endif // POLYMATH_CORE_JSON_H_
