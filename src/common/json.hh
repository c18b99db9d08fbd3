/**
 * @file
 * The one JSON reader, and the number and string emitters every
 * JSON writer shares.
 *
 * parse() is a strict RFC 8259 reader that builds a value tree.
 * Each document format the repository reads (power traces, outage
 * schedules, replay artifacts and campaign reports, metrics
 * snapshots) is a short walk over that tree, so they share one
 * grammar: no NaN, Infinity, hex, leading '+' or leading zeros, no
 * raw control characters in strings, no duplicate keys, nothing after
 * the document, and at most kMaxDepth levels of nesting.  \uXXXX
 * escapes (surrogate pairs included) decode to UTF-8.
 */

#ifndef MOUSE_COMMON_JSON_HH
#define MOUSE_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mouse
{

/** Body of a JSON string literal holding @p s: quotes, backslashes
 *  and control characters escaped. */
std::string jsonEscape(const std::string &s);

namespace json
{

/** Deepest nesting of arrays and objects parse() accepts.  Deeper
 *  documents are rejected rather than recursed into, so no input can
 *  exhaust the stack. */
inline constexpr std::size_t kMaxDepth = 64;

/** Largest magnitude integer() reads: every integer up to 2^53 is
 *  exact in a double. */
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

enum class Kind
{
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
};

/** One parsed value; arrays and objects own their children. */
struct Value
{
    Kind kind = Kind::kNull;
    /** 1-based line the value starts on. */
    std::size_t line = 1;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    /** Array elements, or object member values in document order. */
    std::vector<Value> items;
    /** Object member names: keys[i] names items[i]. */
    std::vector<std::string> keys;

    /** The member named @p key; nullptr when there is none or this
     *  is not an object. */
    const Value *find(std::string_view key) const;
};

/** Why a document failed to parse, anchored to a 1-based line. */
struct Error
{
    std::size_t line = 1;
    std::string message;
};

/** Parse one document.  On failure returns nullopt and fills @p err
 *  (when given) with the offending line. */
std::optional<Value> parse(std::string_view text, Error *err = nullptr);

/** @p v as an integer in [lo, hi] (and within ±kMaxExactInteger);
 *  nullopt when it is not a number, has a fractional part or lies
 *  outside the range. */
std::optional<std::int64_t> integer(const Value &v, std::int64_t lo,
                                    std::int64_t hi);

/** @p v to 17 significant digits, which parse back to the same double.
 *  JSON cannot spell non-finite values, so +inf, -inf and NaN become
 *  1e308, -1e308 and 0. */
std::string num(double v);

} // namespace json
} // namespace mouse

#endif // MOUSE_COMMON_JSON_HH
