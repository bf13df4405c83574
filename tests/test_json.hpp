// A minimal recursive-descent JSON reader for tests that schema-check a
// writer's whole document (the Chrome trace export) without external
// dependencies.  Numbers are parsed as
// doubles (the checked values are small integers, exactly representable),
// and \uXXXX escapes are kept as written.  A syntax error throws
// std::runtime_error.  The library's own readers are the strict
// per-line scanners of obs/json.hpp; this one exists only to check
// writer output in tests.
#pragma once

#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace xentry::test {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  const JsonObject& obj() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& arr() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  const std::string& str() const { return std::get<std::string>(v); }
  double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing data");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return {parse_string()};
      case 't': literal("true"); return {true};
      case 'f': literal("false"); return {false};
      case 'n': literal("null"); return {nullptr};
      default: return {number()};
    }
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_++] != *p) {
        throw std::runtime_error("bad literal");
      }
    }
  }

  JsonValue object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++pos_;
      return {obj};
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      (*obj)[key] = value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return {obj};
    }
  }

  JsonValue array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++pos_;
      return {arr};
    }
    while (true) {
      arr->push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return {arr};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            out += "\\u" + text_.substr(pos_, 4);  // keep escaped; ASCII-only
            pos_ += 4;
            break;
          default: throw std::runtime_error("bad escape");
        }
      } else {
        out += c;
      }
    }
    throw std::runtime_error("unterminated string");
  }

  double number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    return std::stod(text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace xentry::test
