// JSON reader tests: the value tree, typed accessors that never route an
// integer through a double, RFC 8259 strictness, the escapes the writers
// produce, duplicate keys, the depth limit, and context-prefixed errors.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/format.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

std::string error_of(const std::string& text) {
  try {
    parse_json(text, "ctx");
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonReader, ParsesNestedValues) {
  const JsonValue v = parse_json(
      " {\"b\":{\"big\":18446744073709551615,\"neg\":-9223372036854775808},"
      "\"a\":[1,-0.5e3,true,false,null,\"s\"]}\n",
      "ctx");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  const std::vector<JsonValue>& a = v.at("a").items();
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0].i64(), 1);
  EXPECT_EQ(a[1].f64(), -500.0);
  EXPECT_TRUE(a[2].boolean());
  EXPECT_FALSE(a[3].boolean());
  EXPECT_EQ(a[4].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(a[5].str(), "s");
  // Integers are read from their digits: no double rounding at 2^64 - 1.
  EXPECT_EQ(v.at("b").at("big").u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.at("b").at("neg").i64(),
            std::numeric_limits<std::int64_t>::min());
  // Members are sorted by key.
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].key(), "a");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonReader, TypedAccessorsRejectWhatTheyCannotRepresent) {
  const JsonValue v = parse_json(
      "{\"exp\":1e300,\"frac\":-1.5,\"one\":1.0,\"neg\":-1,"
      "\"u64_over\":18446744073709551616,\"i64_over\":9223372036854775808,"
      "\"huge\":1e400,\"s\":\"12\",\"n\":null}",
      "ctx");
  for (const char* key : {"exp", "frac", "one", "u64_over", "i64_over", "s"}) {
    EXPECT_THROW(v.at(key).i64(), ParseError) << key;
  }
  for (const char* key : {"exp", "frac", "one", "neg", "u64_over", "n"}) {
    EXPECT_THROW(v.at(key).u64(), ParseError) << key;
  }
  EXPECT_EQ(v.at("neg").i64(), -1);
  EXPECT_EQ(v.at("exp").f64(), 1e300);
  EXPECT_THROW(v.at("huge").f64(), ParseError);
  EXPECT_THROW(v.at("s").f64(), ParseError);
  EXPECT_THROW(v.at("n").boolean(), ParseError);
  EXPECT_THROW(v.at("n").str(), ParseError);
  EXPECT_THROW(v.at("n").items(), ParseError);
  EXPECT_THROW(v.at("n").at("x"), ParseError);
  EXPECT_THROW(v.at("absent"), ParseError);
}

TEST(JsonReader, RejectsWhatRfc8259Rejects) {
  for (const char* bad :
       {"", "  ", "+1", "01", "-", "1.", ".5", "1e", "1e+", "0x10", "NaN",
        "Infinity", "-Infinity", "nul", "tru", "[1,]", "[1 2]", "{\"a\":1,}",
        "{\"a\" 1}", "{1:2}", "{\"a\"}", "'a'", "\"abc", "\"\\x\"",
        "\"\\u12\"", "\"\\u00zz\"", "\"a\nb\"", "\"tab\there\"", "[1] 2",
        "{} {}", "[", "{", "\xef\xbb\xbf{}"}) {
    EXPECT_THROW(parse_json(bad, "ctx"), ParseError) << bad;
  }
}

TEST(JsonReader, ReadsBackEveryStringTheWriterEscapes) {
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  std::ostringstream os;
  os << "\"";
  append_escaped(os, all);
  os << "\"";
  EXPECT_EQ(parse_json(os.str(), "ctx").str(), all);
  // The short escapes and \u forms a hand-written file may use.
  EXPECT_EQ(parse_json("\"\\/\\b\\f\\n\\r\\t\\u0041\\u007F\"", "ctx").str(),
            "/\b\f\n\r\tA\x7f");
  // Beyond ASCII a \u escape is not taken; raw UTF-8 bytes are.
  EXPECT_THROW(parse_json("\"\\u00e9\"", "ctx"), ParseError);
  EXPECT_EQ(parse_json("\"\xc3\xa9\"", "ctx").str(), "\xc3\xa9");
}

TEST(JsonReader, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_json("{\"a\":1,\"b\":2,\"a\":1}", "ctx"), ParseError);
  EXPECT_NE(error_of("{\"k\":{\"x\":1,\"x\":2}}").find("duplicate key 'x'"),
            std::string::npos);
  // The same key in sibling objects is fine.
  EXPECT_NO_THROW(parse_json("[{\"a\":1},{\"a\":2}]", "ctx"));
}

TEST(JsonReader, BoundsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kJsonMaxDepth), "ctx"));
  EXPECT_THROW(parse_json(nested(kJsonMaxDepth + 1), "ctx"), ParseError);
  EXPECT_THROW(parse_json(std::string(100000, '['), "ctx"), ParseError);
  EXPECT_THROW(parse_json(std::string(100000, '{'), "ctx"), ParseError);
}

TEST(JsonReader, ErrorsCarryTheCallersContext) {
  EXPECT_EQ(error_of("[1,]"), "ctx: expected a value at offset 3");
  const JsonValue v = parse_json("{\"id\":-1}", "workload log line 7");
  try {
    v.at("id").u64();
    FAIL() << "u64 accepted -1";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "workload log line 7: field 'id' is not a u64: -1");
  }
  try {
    v.at("label");
    FAIL() << "found an absent field";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "workload log line 7: missing field 'label'");
  }
}

}  // namespace
}  // namespace hh
