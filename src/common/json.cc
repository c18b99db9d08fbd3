#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace mouse
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

namespace json
{

namespace
{

void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
        return;
    }
    // Continuation bytes carry 6 bits each; the lead byte's high bits
    // count the bytes (110xxxxx, 1110xxxx, 11110xxx).
    static constexpr std::uint32_t kLead[] = {0, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x800 ? 1 : (cp < 0x10000 ? 2 : 3);
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
        out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
    }
}

/** Recursive descent over the text.  Every caller returns as soon as
 *  a callee fails, so the first failure is the one reported. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Value>
    document(Error *err)
    {
        Value root;
        if (value(root, 0)) {
            skipWs();
            if (pos_ == text_.size()) {
                return root;
            }
            fail("trailing content after the document");
        }
        if (err != nullptr) {
            *err = error_;
        }
        return std::nullopt;
    }

  private:
    bool
    fail(std::string message)
    {
        error_ = {line_, std::move(message)};
        return false;
    }

    bool
    at(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    /** Consume @p token when the text continues with it. */
    bool
    eat(std::string_view token)
    {
        if (text_.substr(pos_, token.size()) != token) {
            return false;
        }
        pos_ += token.size();
        return true;
    }

    void
    skipWs()
    {
        for (; pos_ < text_.size(); ++pos_) {
            const char c = text_[pos_];
            if (c == '\n') {
                ++line_;
            } else if (c != ' ' && c != '\t' && c != '\r') {
                break;
            }
        }
    }

    bool
    value(Value &out, std::size_t depth)
    {
        skipWs();
        out.line = line_;
        if (at('{') || at('[')) {
            if (depth == kMaxDepth) {
                return fail("nesting deeper than " +
                            std::to_string(kMaxDepth) + " levels");
            }
            return at('{') ? object(out, depth + 1)
                           : array(out, depth + 1);
        }
        if (at('"')) {
            out.kind = Kind::kString;
            return string(out.string);
        }
        for (const bool b : {true, false}) {
            if (eat(b ? "true" : "false")) {
                out.kind = Kind::kBool;
                out.boolean = b;
                return true;
            }
        }
        return eat("null") || number(out);
    }

    std::size_t
    digits()
    {
        const std::size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
        }
        return pos_ - from;
    }

    /** RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number(Value &out)
    {
        const std::size_t start = pos_;
        eat("-");
        const std::size_t whole = digits();
        if (whole == 0) {
            return fail(pos_ == start ? "expected a value"
                                      : "malformed number");
        }
        if (whole > 1 && text_[pos_ - whole] == '0') {
            return fail("leading zero in number");
        }
        if (eat(".") && digits() == 0) {
            return fail("malformed number");
        }
        if (eat("e") || eat("E")) {
            if (!eat("+")) {
                eat("-");
            }
            if (digits() == 0) {
                return fail("malformed number");
            }
        }
        // strtod needs the terminator the view lacks; the token is
        // already validated, so it reads all of it.
        const std::string token(text_.substr(start, pos_ - start));
        out.kind = Kind::kNumber;
        out.number = std::strtod(token.c_str(), nullptr);
        return std::isfinite(out.number) || fail("number out of range");
    }

    bool
    hex4(std::uint32_t &cp)
    {
        const char *first = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(first, first + 4, cp, 16).ptr != first + 4) {
            return fail("invalid \\u escape");
        }
        pos_ += 4;
        return true;
    }

    /** A \u escape after its 'u', joining a surrogate pair. */
    bool
    unicode(std::string &out)
    {
        std::uint32_t cp = 0;
        if (!hex4(cp)) {
            return false;
        }
        const char *unpaired = "unpaired surrogate in \\u escape";
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            std::uint32_t low = 0;
            if (!eat("\\u") || !hex4(low) || low < 0xDC00 || low > 0xDFFF) {
                return fail(unpaired);
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail(unpaired);
        }
        appendUtf8(out, cp);
        return true;
    }

    bool
    string(std::string &out)
    {
        static constexpr std::string_view kEscape = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        ++pos_; // the opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') {
                return true;
            }
            if (c == '\n') {
                break;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return fail("control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                break;
            }
            const char e = text_[pos_++];
            const std::size_t k = kEscape.find(e);
            if (k != std::string_view::npos) {
                out += kDecoded[k];
            } else if (e != 'u') {
                return fail("invalid string escape");
            } else if (!unicode(out)) {
                return false;
            }
        }
        return fail("unterminated string");
    }

    /** Shared loop of arrays and objects: member() per element,
     *  comma-separated, up to @p close. */
    template <typename Member>
    bool
    elements(char close, Member member)
    {
        ++pos_; // the opening bracket
        skipWs();
        if (!at(close)) {
            do {
                if (!member()) {
                    return false;
                }
                skipWs();
            } while (eat(","));
        }
        if (!eat(std::string_view(&close, 1))) {
            return fail(std::string("expected ',' or '") + close + "'");
        }
        return true;
    }

    bool
    array(Value &out, std::size_t depth)
    {
        out.kind = Kind::kArray;
        return elements(']', [&] {
            return value(out.items.emplace_back(), depth);
        });
    }

    bool
    object(Value &out, std::size_t depth)
    {
        out.kind = Kind::kObject;
        std::set<std::string> seen;
        return elements('}', [&] {
            skipWs();
            if (!at('"')) {
                return fail("expected a string key");
            }
            std::string &key = out.keys.emplace_back();
            if (!string(key)) {
                return false;
            }
            if (!seen.insert(key).second) {
                return fail("duplicate key \"" + key + "\"");
            }
            skipWs();
            if (!eat(":")) {
                return fail("expected ':' after key");
            }
            return value(out.items.emplace_back(), depth);
        });
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    Error error_;
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == key) {
            return &items[i];
        }
    }
    return nullptr;
}

std::optional<Value>
parse(std::string_view text, Error *err)
{
    return Parser(text).document(err);
}

std::optional<std::int64_t>
integer(const Value &v, std::int64_t lo, std::int64_t hi)
{
    lo = std::max(lo, -kMaxExactInteger);
    hi = std::min(hi, kMaxExactInteger);
    if (v.kind != Kind::kNumber || v.number != std::trunc(v.number) ||
        v.number < static_cast<double>(lo) ||
        v.number > static_cast<double>(hi)) {
        return std::nullopt;
    }
    return static_cast<std::int64_t>(v.number);
}

std::string
num(double v)
{
    if (!std::isfinite(v)) {
        return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace json
} // namespace mouse
