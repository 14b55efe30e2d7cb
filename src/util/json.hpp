// Strict RFC 8259 JSON reader: the one parser every JSON input goes
// through (workload logs, perf baselines, tests that check an export).
//
// parse_json() turns text into a JsonValue tree. Numbers keep their raw
// text, so i64()/u64() read an integer field straight from its digits and it
// never passes through a double. Every error — bad syntax, a missing field,
// a value of the wrong type — is a ParseError whose message starts with the
// caller's context prefix ("workload log line 3: ...", "baseline JSON: ...").
//
// Grammar: whitespace is ' ', '\t', '\n' and '\r'. Strings take the escapes
// \" \\ \/ \b \f \n \r \t and \u0000-\u007f (append_escaped writes nothing
// else); a raw control character in a string is an error, and bytes >= 0x80
// pass through unchanged. A duplicate object key is an error, and so is
// nesting deeper than kJsonMaxDepth, so hostile input cannot exhaust the
// stack.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hh {

inline constexpr int kJsonMaxDepth = 64;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }

  /// Typed reads; each throws ParseError when the value is not of that type
  /// (an integer read also rejects a fraction, an exponent and overflow).
  std::int64_t i64() const;
  std::uint64_t u64() const;
  double f64() const;
  bool boolean() const;
  const std::string& str() const;

  /// Array elements in document order.
  const std::vector<JsonValue>& items() const;
  /// Object members sorted by key; key() names each one.
  const std::vector<JsonValue>& members() const;
  const std::string& key() const { return key_; }

  /// The member named `key`; throws if it is absent.
  const JsonValue& at(std::string_view key) const;
  /// The member named `key`, or nullptr if it is absent.
  const JsonValue* find(std::string_view key) const;

 private:
  friend class JsonParser;
  JsonValue() = default;

  [[noreturn]] void fail(const std::string& why) const;
  template <typename T>
  T number(const char* type) const;

  Kind kind_ = Kind::kNull;
  std::string text_;  // number: raw text; string: unescaped; bool: literal
  std::vector<JsonValue> items_;  // array elements or object members
  std::string key_;               // set on object members
  bool member_ = false;
  std::shared_ptr<const std::string> context_;  // error-message prefix
};

/// Parse one JSON value spanning all of `text` (surrounding whitespace
/// allowed). Throws ParseError "<context>: <why> at offset N" on bad syntax.
JsonValue parse_json(std::string_view text, const std::string& context);

}  // namespace hh
