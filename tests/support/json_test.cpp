// support::JsonWriter / parse_json — the dependency-free JSON layer
// behind BENCH_results.json, the metrics surface, and the guided-
// campaign corpus.  Escaping and structure are checked directly; the
// round-trip test re-parses the writer's output with the library's own
// parser (promoted out of this file when the corpus needed to load
// JSON), so a formatting bug can't hide behind string comparison
// against the writer's idioms, and a parser bug breaks the round trip
// from the other side.
#include "ptest/support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace ptest::support {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world_42"), "hello world_42");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("C:\\path\\\"x\""), "C:\\\\path\\\\\\\"x\\\"");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscape, LeavesUtf8BytesAlone) {
  EXPECT_EQ(json_escape("\xc3\xa9"), "\xc3\xa9");  // é passes through
}

TEST(JsonWriter, EmptyObjectAndArray) {
  {
    JsonWriter out;
    out.begin_object().end_object();
    EXPECT_EQ(out.str(), "{}");
    EXPECT_EQ(out.depth(), 0u);
  }
  {
    JsonWriter out;
    out.begin_array().end_array();
    EXPECT_EQ(out.str(), "[]");
  }
}

TEST(JsonWriter, CompactObject) {
  JsonWriter out(/*indent=*/0);
  out.begin_object();
  out.key("a").value(std::int64_t{1});
  out.key("b").value("x");
  out.key("c").value(true);
  out.key("d").null();
  out.end_object();
  EXPECT_EQ(out.str(), R"({"a":1,"b":"x","c":true,"d":null})");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter out(/*indent=*/0);
  out.begin_object();
  out.key("stats").begin_object();
  out.key("values").begin_array();
  out.value(std::int64_t{1}).value(std::int64_t{2});
  out.begin_object().key("deep").value("yes").end_object();
  out.end_array();
  out.end_object();
  out.end_object();
  EXPECT_EQ(out.str(), R"({"stats":{"values":[1,2,{"deep":"yes"}]}})");
}

TEST(JsonWriter, IndentedOutputIsStable) {
  JsonWriter out(2);
  out.begin_object();
  out.key("a").value(std::int64_t{1});
  out.key("b").begin_array().value(std::int64_t{2}).end_array();
  out.end_object();
  EXPECT_EQ(out.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, NumbersRoundTripDeterministically) {
  JsonWriter out(0);
  out.begin_array();
  out.value(0.5).value(1e-9).value(123456789.25);
  out.value(std::uint64_t{18446744073709551615ULL});
  out.value(std::int64_t{-42});
  out.end_array();
  EXPECT_EQ(out.str(),
            "[0.5,1.0000000000000001e-09,123456789.25,"
            "18446744073709551615,-42]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter out(0);
  out.begin_array();
  out.value(std::nan(""));
  out.value(std::numeric_limits<double>::infinity());
  out.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter out;
    out.begin_object();
    EXPECT_THROW(out.value("no key"), std::logic_error);
  }
  {
    JsonWriter out;
    out.begin_array();
    EXPECT_THROW(out.key("arrays have no keys"), std::logic_error);
  }
  {
    JsonWriter out;
    out.begin_object();
    EXPECT_THROW(out.end_array(), std::logic_error);
  }
  {
    JsonWriter out;
    out.begin_object();
    out.key("dangling");
    EXPECT_THROW(out.end_object(), std::logic_error);
  }
}

// --- round trip through the library parser --------------------------------

TEST(JsonRoundTrip, StructureAndValuesSurvive) {
  JsonWriter out;
  out.begin_object();
  out.key("name with \"quotes\"").value("line1\nline2\tend\\");
  out.key("median_ms").value(1.5);
  out.key("tiny").value(4.2e-7);
  out.key("count").value(std::uint64_t{12345678901234567ULL});
  out.key("ok").value(true);
  out.key("nothing").null();
  out.key("nested").begin_object();
  out.key("list").begin_array();
  out.value(std::int64_t{1}).value("two").value(3.0);
  out.begin_object().key("ctrl\x01key").value("v").end_object();
  out.end_array();
  out.end_object();
  out.end_object();
  ASSERT_EQ(out.depth(), 0u);

  const auto parsed = parse_json(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("name with \"quotes\"").string, "line1\nline2\tend\\");
  EXPECT_DOUBLE_EQ(root.at("median_ms").number, 1.5);
  EXPECT_DOUBLE_EQ(root.at("tiny").number, 4.2e-7);
  EXPECT_DOUBLE_EQ(root.at("count").number, 12345678901234568.0);
  EXPECT_TRUE(root.at("ok").boolean);
  EXPECT_TRUE(root.at("nothing").is_null());
  const JsonValue& nested = root.at("nested");
  ASSERT_TRUE(nested.is_object());
  const JsonValue& list = nested.at("list");
  ASSERT_EQ(list.array.size(), 4u);
  EXPECT_DOUBLE_EQ(list.array[0].number, 1.0);
  EXPECT_EQ(list.array[1].string, "two");
  EXPECT_DOUBLE_EQ(list.array[2].number, 3.0);
  EXPECT_EQ(list.array[3].at("ctrl\x01key").string, "v");
}

TEST(JsonRoundTrip, IndentedAndCompactOutputsParseIdentically) {
  for (const int indent : {0, 2}) {
    JsonWriter out(indent);
    out.begin_object();
    out.key("a").begin_array().value(std::int64_t{1}).value(false).end_array();
    out.key("b").value("x");
    out.end_object();
    const auto parsed = parse_json(out.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed.value().at("a").array.size(), 2u);
    EXPECT_EQ(parsed.value().at("b").string, "x");
  }
}

// --- parser on hand-written and malformed input ---------------------------

TEST(JsonParse, AcceptsStandardDocuments) {
  const auto parsed = parse_json(
      R"({"k": [1, -2.5e3, "séq", {"deep": null}], "t": true})");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const JsonValue& root = parsed.value();
  const JsonValue& k = root.at("k");
  ASSERT_EQ(k.array.size(), 4u);
  EXPECT_DOUBLE_EQ(k.array[1].number, -2500.0);
  EXPECT_EQ(k.array[2].string, "s\xc3\xa9q");  // é decodes to UTF-8
  EXPECT_TRUE(k.array[3].at("deep").is_null());
  EXPECT_TRUE(root.at("t").boolean);
  EXPECT_EQ(root.find("absent"), nullptr);
  EXPECT_THROW((void)root.at("absent"), std::out_of_range);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\" 1}", "[1,]", "[1 2]", "{\"a\":1} trailing",
        "\"unterminated", "nulll", "{\"a\": bogus}", "\"bad \\q escape\""}) {
    SCOPED_TRACE(bad);
    const auto parsed = parse_json(bad);
    EXPECT_FALSE(parsed.ok());
    if (!parsed.ok()) {
      EXPECT_NE(parsed.error().find("JSON parse error"), std::string::npos);
    }
  }
}

TEST(JsonParse, EnforcesTheStrictNumberGrammar) {
  // strtod alone would happily accept every one of these; JSON does not.
  for (const char* bad :
       {"nan", "-nan", "inf", "infinity", "[Infinity]", "{\"a\": nan}",
        "0x1p3", "0x10", "01", "-01", "1.", ".5", "-.5", "1e", "1e+",
        "+1", "--1", "1e999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_json(bad).ok());
  }
}

TEST(JsonParse, NumbersOfAnyLengthParse) {
  // The token scan is unbounded: a 70-digit integer is valid JSON and
  // must parse (to the nearest double), not fail on some prefix cap.
  const std::string seventy(70, '9');
  const auto parsed = parse_json("[" + seventy + "]");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_DOUBLE_EQ(parsed.value().array[0].number, 1e70);
  // Long but fractional-heavy forms too.
  const auto frac = parse_json("0." + std::string(80, '1') + "e2");
  ASSERT_TRUE(frac.ok()) << frac.error();
  EXPECT_NEAR(frac.value().number, 11.1111, 1e-3);
}

TEST(JsonParse, BoundsNestingDepth) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(parse_json(deep).ok());
  std::string shallow(20, '[');
  shallow += "1";
  shallow += std::string(20, ']');
  EXPECT_TRUE(parse_json(shallow).ok());
}

TEST(JsonParse, NestingLimitIsExact) {
  // The parser admits values at depth <= 64: a chain of 64 arrays
  // around a number parses, one more level fails — the limit is a
  // boundary, not a fuzzy region.
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + "1" + std::string(levels, ']');
  };
  EXPECT_TRUE(parse_json(nested(64)).ok());
  const auto too_deep = parse_json(nested(65));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.error().find("nesting too deep"), std::string::npos);
}

TEST(JsonParse, EveryTruncationOfADocumentIsRejected) {
  // Fleet frames arrive over a socket and corpora from disk, where a
  // reader can see a cut-off prefix (a dropped peer, a crashed writer).
  // No proper prefix of a document whose root closes at the last byte
  // may half-parse.
  const std::string doc =
      R"({"a": [1, -2.5e3, "x\nA", true, null], "b": {"c": false}})";
  ASSERT_TRUE(parse_json(doc).ok());
  for (std::size_t len = 0; len < doc.size(); ++len) {
    SCOPED_TRACE(doc.substr(0, len));
    EXPECT_FALSE(parse_json(doc.substr(0, len)).ok());
  }
}

TEST(JsonParse, RejectsNumbersBeyondDoubleRange) {
  // Syntactically fine, semantically unrepresentable: the parser must
  // refuse rather than hand consumers an infinity.
  const std::string digits(400, '9');
  for (const std::string& big :
       {std::string("1e999"), std::string("-1e999"), std::string("1e308999"),
        std::string("[1, 2, 1e400]"), digits}) {
    SCOPED_TRACE(big);
    const auto parsed = parse_json(big);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error().find("number out of range"), std::string::npos);
  }
  // The largest finite double still parses.
  EXPECT_TRUE(parse_json("1.7976931348623157e308").ok());
  EXPECT_TRUE(parse_json("-1.7976931348623157e308").ok());
}

}  // namespace
}  // namespace ptest::support
