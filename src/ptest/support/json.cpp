#include "ptest/support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ptest::support {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::prepare_for_value() {
  if (stack_.empty()) {
    if (!out_.empty()) {
      throw std::logic_error("JsonWriter: multiple top-level values");
    }
    return;
  }
  if (stack_.back() == Scope::kObject) {
    if (!key_pending_) {
      throw std::logic_error("JsonWriter: value inside object without key()");
    }
    key_pending_ = false;
    return;  // key() already handled comma + indent
  }
  if (!first_in_scope_.back()) out_ += ',';
  first_in_scope_.back() = false;
  newline_indent();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back() != Scope::kObject) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  if (key_pending_) {
    throw std::logic_error("JsonWriter: key() while a key is pending");
  }
  if (!first_in_scope_.back()) out_ += ',';
  first_in_scope_.back() = false;
  newline_indent();
  out_ += '"';
  out_ += json_escape(name);
  out_ += indent_ > 0 ? "\": " : "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  prepare_for_value();
  out_ += '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: mismatched end_object()");
  }
  const bool empty = first_in_scope_.back();
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (!empty) newline_indent();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prepare_for_value();
  out_ += '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray) {
    throw std::logic_error("JsonWriter: mismatched end_array()");
  }
  const bool empty = first_in_scope_.back();
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (!empty) newline_indent();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  prepare_for_value();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  prepare_for_value();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) return null();
  prepare_for_value();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  prepare_for_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  prepare_for_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::null() {
  prepare_for_value();
  out_ += "null";
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::out_of_range("JsonValue: missing key '" + std::string(key) +
                            "'");
  }
  return *value;
}

namespace {

/// Recursive-descent parser over a string_view; fail() stores the first
/// error and every production backs out on it, so parse() returns either
/// a complete document or the earliest diagnostic.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue, std::string> parse() {
    JsonValue value = parse_value(0);
    skip_ws();
    if (error_.empty() && pos_ != text_.size()) {
      fail("trailing bytes after document");
    }
    if (!error_.empty()) return error_;
    return value;
  }

 private:
  /// Deep enough for every in-tree document; a bound at all keeps a
  /// malicious corpus file from overflowing the stack.
  static constexpr int kMaxDepth = 64;

  void fail(std::string reason) {
    if (error_.empty()) {
      error_ = "JSON parse error at byte " + std::to_string(pos_) + ": " +
               std::move(reason);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::string parse_string() {
    std::string out;
    if (!expect('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return out;
            }
          }
          pos_ += 4;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code >= 0xD800 && code < 0xE000) {
            fail("surrogate \\u escape unsupported");
            return out;
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail(std::string("bad escape '\\") + escape + "'");
          return out;
      }
    }
    expect('"');
    return out;
  }

  JsonValue parse_value(int depth) {
    JsonValue value;
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return value;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return value;
    }
    const char c = peek();
    if (c == '{') {
      value.kind = JsonValue::Kind::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return value;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        if (!expect(':')) return value;
        value.object.emplace_back(std::move(key), parse_value(depth + 1));
        if (!error_.empty()) return value;
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return value;
      }
    }
    if (c == '[') {
      value.kind = JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      for (;;) {
        value.array.push_back(parse_value(depth + 1));
        if (!error_.empty()) return value;
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return value;
      }
    }
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
      return value;
    }
    if (consume_literal("null")) {
      value.kind = JsonValue::Kind::kNull;
      return value;
    }
    // Number: scan the strict JSON grammar first, then strtod over
    // exactly that token.  strtod alone would also accept nan, inf,
    // infinity, and hex floats, none of which are JSON.
    value.kind = JsonValue::Kind::kNumber;
    std::size_t end = pos_;
    const auto digit = [&](std::size_t i) {
      return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
    };
    if (end < text_.size() && text_[end] == '-') ++end;
    const std::size_t int_begin = end;
    while (digit(end)) ++end;
    if (end == int_begin) {
      fail("expected a value");
      return value;
    }
    if (text_[int_begin] == '0' && end - int_begin > 1) {
      fail("leading zero in number");
      return value;
    }
    if (end < text_.size() && text_[end] == '.') {
      const std::size_t frac_begin = ++end;
      while (digit(end)) ++end;
      if (end == frac_begin) {
        fail("expected digits after decimal point");
        return value;
      }
    }
    if (end < text_.size() && (text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
      if (end < text_.size() && (text_[end] == '+' || text_[end] == '-')) {
        ++end;
      }
      const std::size_t exp_begin = end;
      while (digit(end)) ++end;
      if (end == exp_begin) {
        fail("expected digits in exponent");
        return value;
      }
    }
    const std::string token(text_.substr(pos_, end - pos_));
    value.number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value.number)) {
      // Syntactically valid but beyond double range (e.g. 1e999).
      // JsonWriter never emits non-finite numbers, so rejecting here
      // keeps every parsed number finite for consumers.
      fail("number out of range");
      return value;
    }
    pos_ = end;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<std::uint64_t> as_count(const JsonValue* value) {
  if (value == nullptr || !value->is_number()) return std::nullopt;
  const double number = value->number;
  // Range-check BEFORE the cast: float-to-integer conversion of a value
  // outside [0, 2^64) — including NaN — is undefined behavior, and a
  // hand-edited document can hold any number.  !(>= 0) also rejects NaN.
  if (!(number >= 0.0) || number >= 18446744073709551616.0) {
    return std::nullopt;
  }
  if (number != static_cast<double>(static_cast<std::uint64_t>(number))) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

Result<JsonValue, std::string> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace ptest::support
