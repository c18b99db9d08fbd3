/**
 * @file
 * Tests for the shared utilities: deterministic RNG behaviour and
 * the strict JSON reader every document format goes through.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/json.hh"
#include "common/rng.hh"

namespace mouse
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        same += a.next() == b.next();
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Rng, BetweenIsInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// -- JSON reader --------------------------------------------------------

/** Parse @p text expecting failure; the error it reports. */
json::Error
rejection(const std::string &text)
{
    json::Error err;
    EXPECT_FALSE(json::parse(text, &err).has_value()) << text;
    EXPECT_FALSE(err.message.empty()) << text;
    return err;
}

TEST(Json, ParsesEveryKindWithItsLine)
{
    const auto doc = json::parse(
        "{\"a\": [1, -0.5e2, true],\n \"b\": null,\n\n \"c\": {\"d\": \"x\"}"
        ", \"e\": false}");
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->kind, json::Kind::kObject);
    ASSERT_EQ(doc->keys.size(), 4u);
    const json::Value *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->kind, json::Kind::kArray);
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_EQ(a->items[0].number, 1.0);
    EXPECT_EQ(a->items[1].number, -50.0);
    EXPECT_TRUE(a->items[2].boolean);
    EXPECT_EQ(doc->find("b")->kind, json::Kind::kNull);
    EXPECT_EQ(doc->find("b")->line, 2u);
    const json::Value *c = doc->find("c");
    EXPECT_EQ(c->line, 4u);
    EXPECT_EQ(c->find("d")->string, "x");
    EXPECT_EQ(doc->find("e")->kind, json::Kind::kBool);
    EXPECT_FALSE(doc->find("e")->boolean);
    EXPECT_EQ(doc->find("missing"), nullptr);
    EXPECT_EQ(a->find("a"), nullptr); // not an object
}

TEST(Json, RejectsWhatRfc8259Rejects)
{
    for (const char *bad :
         {"NaN", "nan", "Infinity", "-Infinity", "0x1F", "+1", "01",
          "-01", "1.", ".5", "1e", "1e+", "-", "1e999", "[1,]",
          "{\"a\":1,}", "{a:1}", "{\"a\" 1}", "[1 2]", "'x'", "tru",
          "", "   ", "{} {}", "[1] x"}) {
        rejection(bad);
    }
    for (const char *good : {"0", "-0", "1e5", "1E-5", "0.25", "-1.5e+3",
                             "[]", "{}", " [ ] ", "\"\""}) {
        EXPECT_TRUE(json::parse(good).has_value()) << good;
    }
    // A repeated key, even in a nested object.
    EXPECT_NE(rejection("{\"a\":1,\"b\":{\"k\":1,\"k\":2}}")
                  .message.find("duplicate key \"k\""),
              std::string::npos);
    // Raw control characters are not string content.
    rejection(std::string("\"a\tb\""));
    rejection(std::string("\"a\nb\""));
    rejection(std::string("\"a\0b\"", 5));
}

TEST(Json, ErrorsCarryTheirLine)
{
    EXPECT_EQ(rejection("{\n\"a\": 1,\n\"b\": ]\n}").line, 3u);
    EXPECT_EQ(rejection("[1,\n2,\n\n3").line, 4u);
    EXPECT_EQ(rejection("{\"a\":1,\n\"a\":2}").line, 2u);
    EXPECT_EQ(rejection("\n\n{}\nextra").line, 4u);
}

TEST(Json, DecodesEscapesAndSurrogatePairs)
{
    const auto s = json::parse(
        R"("\"\\\/\b\f\n\r\t Aé€😀")");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->string, "\"\\/\b\f\n\r\t A\xc3\xa9\xe2\x82\xac"
                         "\xf0\x9f\x98\x80");
    for (const char *bad : {R"("\x")", R"("\u00G1")", R"("\u12")",
                            R"("\ud83d")", R"("\ud83dA")",
                            R"("\ude00")", R"("abc)", "\"abc\\"}) {
        rejection(bad);
    }
}

TEST(Json, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 1; c < 256; ++c) {
        all += static_cast<char>(c);
    }
    all += '\0';
    const auto back = json::parse("\"" + jsonEscape(all) + "\"");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->string, all);
}

TEST(Json, NestingIsBoundedWithoutRecursingPastTheLimit)
{
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).has_value());
    EXPECT_NE(rejection(nested(json::kMaxDepth + 1))
                  .message.find("nesting"),
              std::string::npos);
    // A million unclosed brackets fail at the limit, not on the stack.
    rejection("{\"x\":" + std::string(1000000, '['));
}

TEST(Json, IntegerReadsExactValuesInRange)
{
    const auto read = [](const char *text, std::int64_t lo,
                         std::int64_t hi) {
        return json::integer(*json::parse(text), lo, hi);
    };
    EXPECT_EQ(read("42", 0, 100), 42);
    EXPECT_EQ(read("-3", -5, 5), -3);
    EXPECT_EQ(read("1e3", 0, 1000), 1000);
    EXPECT_EQ(read("9007199254740992", 0,
                   std::numeric_limits<std::int64_t>::max()),
              json::kMaxExactInteger);
    EXPECT_FALSE(read("9007199254740994", 0,
                      std::numeric_limits<std::int64_t>::max()));
    EXPECT_FALSE(read("2.5", 0, 100));
    EXPECT_FALSE(read("101", 0, 100));
    EXPECT_FALSE(read("-1", 0, 100));
    EXPECT_FALSE(read("1e30", 0, 100));
    EXPECT_FALSE(read("\"7\"", 0, 100));
    EXPECT_FALSE(read("true", 0, 100));
}

TEST(Json, NumRoundTripsAndSpellsNonFiniteAsJson)
{
    for (double v : {0.0, -0.0, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                     -2.5e-7}) {
        const auto back = json::parse(json::num(v));
        ASSERT_TRUE(back.has_value()) << json::num(v);
        EXPECT_EQ(back->number, v);
    }
    EXPECT_EQ(json::num(std::numeric_limits<double>::infinity()), "1e308");
    EXPECT_EQ(json::num(-std::numeric_limits<double>::infinity()),
              "-1e308");
    EXPECT_EQ(json::num(std::nan("")), "0");
    EXPECT_EQ(json::num(0.1), "0.10000000000000001");
}

} // namespace
} // namespace mouse
