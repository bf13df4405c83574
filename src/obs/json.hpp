// Minimal JSON reader for the telemetry pipeline's own output, and the
// number writers every hand-rolled JSON writer in the repo shares.
//
// Everything the observability layer persists (metrics snapshots, the
// checkpoint journal, JSONL record streams) is JSON this repo wrote
// itself, and the streaming/resume machinery must read it back without
// external dependencies.  This parser covers exactly RFC-8259 value
// syntax (objects, arrays, strings with the escapes our writers emit,
// numbers, booleans, null) with two deliberate simplifications: numbers
// are held as both int64 and double (writers only emit integers, a few
// fixed-precision doubles, and %.17g round-trip doubles), and \uXXXX
// escapes outside the control range decode to '?' (our writers never
// emit them).  Parse failures return nullopt instead of throwing — a
// torn tail line of a killed process's journal is an expected input,
// not an error.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xentry::obs {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() ? int_ : fallback;
  }
  std::uint64_t as_uint(std::uint64_t fallback = 0) const {
    return is_number() ? uint_ : fallback;
  }
  double as_double(double fallback = 0.0) const {
    return is_number() ? double_ : fallback;
  }
  const std::string& as_string() const {
    static const std::string empty;
    return is_string() ? string_ : empty;
  }
  const std::vector<JsonValue>& as_array() const {
    static const std::vector<JsonValue> empty;
    return is_array() ? array_ : empty;
  }
  const std::map<std::string, JsonValue>& as_object() const {
    static const std::map<std::string, JsonValue> empty;
    return is_object() ? object_ : empty;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;

  /// Convenience: member value with typed fallback.
  std::int64_t get_int(std::string_view key, std::int64_t fallback = 0) const;
  std::uint64_t get_uint(std::string_view key,
                         std::uint64_t fallback = 0) const;
  double get_double(std::string_view key, double fallback = 0.0) const;
  bool get_bool(std::string_view key, bool fallback = false) const;
  const std::string& get_string(std::string_view key) const;

  // Construction (used by the parser; tests may build values directly).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(std::int64_t i);
  static JsonValue number_u(std::uint64_t u);
  static JsonValue number_d(double d);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> a);
  static JsonValue object(std::map<std::string, JsonValue> o);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON value from `text` (surrounding whitespace allowed).
/// Returns nullopt on any syntax error or trailing garbage.
std::optional<JsonValue> parse_json(std::string_view text);

/// Parses one JSON value from the front of `text`, advancing `pos` past
/// it; trailing content is left unconsumed.  nullopt on syntax error.
std::optional<JsonValue> parse_json_prefix(std::string_view text,
                                           std::size_t& pos);

// Number writers.  std::to_chars, not snprintf: the record encoder runs
// them ~20 times per record on the campaign hot path.  Integers come out
// as plain decimal, and to_chars(general, 17) is specified to match
// printf "%.17g", so every double round-trips exactly.
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}
inline void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}
inline void append_double(std::string& out, double v) {
  char buf[40];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

}  // namespace xentry::obs
