#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <system_error>

#include "util/status.hpp"

namespace hh {

class JsonParser {
 public:
  JsonParser(std::string_view text, const std::string& context)
      : s_(text), context_(std::make_shared<const std::string>(context)) {}

  JsonValue document() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after the value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError(*context_ + ": " + why + " at offset " +
                     std::to_string(pos_));
  }

  void skip_ws() {
    pos_ = std::min(s_.find_first_not_of(" \t\n\r", pos_), s_.size());
  }

  bool eat(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    skip_ws();
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  // Arrays and objects are parsed inline, so each nesting level costs one
  // stack frame.
  JsonValue value(int depth) {
    skip_ws();
    if (pos_ >= s_.size()) fail("expected a value");
    JsonValue v;
    v.context_ = context_;
    const char c = s_[pos_];
    if (c == '"') {
      v.kind_ = JsonValue::Kind::kString;
      v.text_ = string();
    } else if (c == 't' || c == 'f') {
      v.kind_ = JsonValue::Kind::kBool;
      v.text_ = literal(c == 't' ? "true" : "false");
    } else if (c == 'n') {
      literal("null");
    } else if (c != '[' && c != '{') {
      v.kind_ = JsonValue::Kind::kNumber;
      v.text_ = number();
    } else {
      if (depth >= kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      const bool object = c == '{';
      v.kind_ = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (eat(object ? '}' : ']')) return v;
      do {
        skip_ws();
        std::string key;
        if (object) {
          key = string();
          expect(':');
        }
        v.items_.push_back(value(depth + 1));
        v.items_.back().key_ = std::move(key);
        v.items_.back().member_ = object;
        skip_ws();
      } while (eat(','));
      expect(object ? '}' : ']');
      if (object) sort_members(v.items_);
    }
    return v;
  }

  // Sorted members make lookups O(log n) and expose duplicate keys.
  void sort_members(std::vector<JsonValue>& members) const {
    const auto key_less = [](const JsonValue& a, const JsonValue& b) {
      return a.key() < b.key();
    };
    const auto same_key = [](const JsonValue& a, const JsonValue& b) {
      return a.key() == b.key();
    };
    std::stable_sort(members.begin(), members.end(), key_less);
    const auto dup =
        std::adjacent_find(members.begin(), members.end(), same_key);
    if (dup != members.end()) fail("duplicate key '" + dup->key() + "'");
  }

  std::string literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
    return std::string(word);
  }

  void digits(const char* why) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (pos_ == start) fail(why);
  }

  std::string number() {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0')) digits("expected a value");
    if (eat('.')) digits("expected a digit after '.'");
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      digits("expected an exponent digit");
    }
    return std::string(s_.substr(start, pos_ - start));
  }

  std::string string() {
    static constexpr std::string_view kEscaped = "\"\\/bfnrt";
    static constexpr std::string_view kUnescaped = "\"\\/\b\f\n\r\t";
    if (!eat('"')) fail("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
      } else if (eat('u')) {
        out.push_back(ascii_escape());
      } else {
        const std::size_t k =
            pos_ < s_.size() ? kEscaped.find(s_[pos_++]) : kEscaped.npos;
        if (k == kEscaped.npos) fail("unsupported escape");
        out.push_back(kUnescaped[k]);
      }
    }
  }

  // The four hex digits of a \u escape; only ASCII code points are taken.
  char ascii_escape() {
    unsigned code = 0;
    const std::string_view hex = s_.substr(pos_, 4);
    const char* end = hex.data() + hex.size();
    const auto [ptr, ec] = std::from_chars(hex.data(), end, code, 16);
    if (hex.size() < 4 || ec != std::errc() || ptr != end || code > 0x7f) {
      fail("unsupported \\u escape");
    }
    pos_ += 4;
    return static_cast<char>(code);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::shared_ptr<const std::string> context_;
};

JsonValue parse_json(std::string_view text, const std::string& context) {
  return JsonParser(text, context).document();
}

void JsonValue::fail(const std::string& why) const {
  const std::string what = member_ ? "field '" + key_ + "'" : "value";
  throw ParseError(*context_ + ": " + what + " " + why);
}

// The whole raw text must convert: a fraction, an exponent or an
// out-of-range value fails an integer read.
template <typename T>
T JsonValue::number(const char* type) const {
  T v{};
  const char* end = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(text_.data(), end, v);
  if (kind_ != Kind::kNumber || ec != std::errc() || ptr != end) {
    fail(std::string("is not ") + type + ": " + text_);
  }
  return v;
}

std::int64_t JsonValue::i64() const { return number<std::int64_t>("an i64"); }

std::uint64_t JsonValue::u64() const { return number<std::uint64_t>("a u64"); }

double JsonValue::f64() const { return number<double>("a finite number"); }

bool JsonValue::boolean() const {
  if (kind_ != Kind::kBool) fail("is not a bool");
  return text_ == "true";
}

const std::string& JsonValue::str() const {
  if (kind_ != Kind::kString) fail("is not a string");
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) fail("is not an array");
  return items_;
}

const std::vector<JsonValue>& JsonValue::members() const {
  if (kind_ != Kind::kObject) fail("is not an object");
  return items_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const std::vector<JsonValue>& m = members();
  const auto it = std::lower_bound(
      m.begin(), m.end(), key,
      [](const JsonValue& v, std::string_view k) { return v.key_ < k; });
  return it != m.end() && it->key_ == key ? &*it : nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw ParseError(*context_ + ": missing field '" + std::string(key) + "'");
  }
  return *v;
}

}  // namespace hh
