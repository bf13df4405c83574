// The one JSON reader for the files this repo persists, the one writer of
// its records and checkpoint journal, and the one JSON string escaper.
//
// Records (fault/record_io) and the checkpoint journal (fault/checkpoint),
// which carries each shard's metrics registry, are JSON this repo wrote
// itself, one object per line, and both are read by `LineScanner`: a
// strict cursor over one line whose
// readers name their members in a table and refuse, with a named error,
// an unknown, duplicate or missing required key, a value of the wrong
// type or range, and any byte after the closing brace.  `read_lines`
// walks a JSONL file: a final line with no newline is a torn write (a
// killed process's last line) and is ignored, while a corrupt line that
// ends in a newline is an error naming `path:line`.
#pragma once

#include <bit>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace xentry::obs {

/// Cursor over one line.  Each read skips JSON whitespace first (except
/// `literal`) and returns false on a token it does not expect.  Strings
/// without escapes come back as views into the line.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The exact bytes `s`, with no whitespace skipped before them.
  bool literal(std::string_view s) {
    if (static_cast<std::size_t>(end_ - p_) < s.size() ||
        std::memcmp(p_, s.data(), s.size()) != 0) {
      return false;
    }
    p_ += s.size();
    return true;
  }

  bool punct(char c) {
    skip_ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  /// A string without escapes or control characters.
  bool string(std::string_view& out) {
    if (!punct('"')) return false;
    const char* const start = p_;
    for (; p_ != end_ && *p_ != '"'; ++p_) {
      if (*p_ == '\\' || static_cast<unsigned char>(*p_) < 0x20) {
        return false;
      }
    }
    if (p_ == end_) return false;
    out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    ++p_;
    return true;
  }

  /// A string with exactly the escapes BufferWriter::escaped writes:
  /// `\"`, `\\`, `\n`, `\t`, and `\u00XX` (lowercase hex) for any other
  /// control byte.  A raw control byte or any other escape is refused.
  bool escaped(std::string& out) {
    if (!punct('"')) return false;
    out.clear();
    while (p_ != end_) {
      const char c = *p_++;
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) return false;
      switch (*p_++) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {  // \u0000 to \u001f
          const int lo = end_ - p_ < 4 ? -1 : hex_digit(p_[3]);
          if (lo < 0 || p_[0] != '0' || p_[1] != '0' || p_[2] < '0' ||
              p_[2] > '1') {
            return false;
          }
          out += static_cast<char>((p_[2] - '0') * 16 + lo);
          p_ += 4;
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  /// A string mapped through one of the `*_from_name` tables.
  template <typename E>
  bool named(E& out, std::optional<E> (*from_name)(std::string_view)) {
    std::string_view s;
    if (!string(s)) return false;
    const std::optional<E> v = from_name(s);
    if (v.has_value()) out = *v;
    return v.has_value();
  }

  /// A JSON integer that fits `T` (no leading zeros, no '+').
  template <typename T>
  bool integer(T& out) {
    skip_ws();
    const char* digit = p_ != end_ && *p_ == '-' ? p_ + 1 : p_;
    if (end_ - digit > 1 && digit[0] == '0' && is_digit(digit[1])) {
      return false;
    }
    return advance(std::from_chars(p_, end_, out));
  }

  /// An enumerator written as its underlying integer.
  template <typename E>
  bool enumerator(E& out) {
    std::underlying_type_t<E> v{};
    if (!integer(v)) return false;
    out = static_cast<E>(v);
    return true;
  }

  /// A flag: exactly `0` or `1`.
  bool flag(bool& out) {
    skip_ws();
    if (p_ == end_ || (*p_ != '0' && *p_ != '1')) return false;
    out = *p_++ == '1';
    return true;
  }

  /// A number as %.17g writes it.  The range check rejects the inf/nan
  /// spellings from_chars also accepts.
  bool number(double& out) {
    skip_ws();
    if (p_ == end_ || (*p_ != '-' && !is_digit(*p_))) return false;
    return advance(std::from_chars(p_, end_, out));
  }

  /// Nothing but whitespace is left; else records "trailing bytes".
  bool end() {
    skip_ws();
    return p_ == end_ || fail("trailing bytes");
  }

  /// Reads an object whose members are named in `names`, spelled as the
  /// writer spells them (`"cat":`), in any order: one memcmp per member in
  /// the writer's order, else a key search.  `read(k)` reads member k's
  /// value.  Refuses an unknown or duplicate key, a value `read` refuses,
  /// and a missing key whose bit is set in `required`.
  template <std::size_t N, typename Read>
  bool members(const std::string_view (&names)[N], std::uint64_t required,
               Read&& read) {
    static_assert(N <= 64, "the seen-key set is one 64-bit word");
    if (!punct('{')) return fail("not an object");
    std::uint64_t seen = 0;
    if (!punct('}')) {
      for (std::size_t member = 0;; ++member) {
        std::size_t key = member;
        if (member >= N || !literal(names[member])) {
          std::string_view name;
          if (!string(name) || !punct(':')) return fail("malformed key");
          key = 0;
          while (key < N && name_of(names[key]) != name) ++key;
          if (key == N) return fail("unknown key", name);
        }
        const std::uint64_t bit = std::uint64_t{1} << key;
        const std::string_view name = name_of(names[key]);
        if ((seen & bit) != 0) return fail("duplicate key", name);
        seen |= bit;
        if (!read(key)) return fail("bad value for", name);
        if (punct('}')) break;
        if (!punct(',')) return fail("expected ',' or '}'");
      }
    }
    if ((seen & required) == required) return true;
    return fail("missing key",
                name_of(names[std::countr_zero(required & ~seen)]));
  }

  /// Reads an object whose keys are not known ahead (a metric map):
  /// `read(key)` reads the value of each member, its key decoded by
  /// `escaped`.
  template <typename Read>
  bool map(Read&& read) {
    if (!punct('{')) return fail("not an object");
    if (punct('}')) return true;
    std::string key;
    do {
      skip_ws();
      const char* const open = p_;
      if (!escaped(key)) return fail("malformed key");
      // The key as written, between its quotes, for errors.
      const std::string_view written(
          open + 1, static_cast<std::size_t>(p_ - open - 2));
      if (!punct(':')) return fail("malformed key");
      if (!read(key)) return fail("bad value for", written);
    } while (punct(','));
    return punct('}') || fail("expected ',' or '}'");
  }

  /// Records why the line is refused and returns false.  The first reason
  /// and key stick: a nested reader's error survives the members() or
  /// map() call that holds it, which adds its key if the error has none.
  /// `key` must view the line or a static table.
  bool fail(std::string_view what, std::string_view key = {}) {
    if (what_.empty()) what_ = what;
    if (key_.empty()) key_ = key;
    return false;
  }

  /// The recorded reason, with the key it concerns; "malformed JSON"
  /// when a token read failed outside any member.
  std::string error() const {
    if (what_.empty()) return "malformed JSON";
    if (key_.empty()) return std::string(what_);
    return std::string(what_) + " '" + std::string(key_) + "'";
  }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }
  static int hex_digit(char c) {
    if (is_digit(c)) return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  }
  /// A member table entry without its quotes and colon.
  static std::string_view name_of(std::string_view m) {
    return std::string_view(m.data() + 1, m.size() - 3);
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n')) {
      ++p_;
    }
  }

  bool advance(std::from_chars_result res) {
    if (res.ec != std::errc{}) return false;
    p_ = res.ptr;
    return true;
  }

  const char* p_;
  const char* end_;
  std::string_view what_;
  std::string_view key_;
};

/// Reads a JSONL file's lines in order through `read(in)`, which returns
/// false to refuse a line (and checks `end()` before it keeps anything).
/// A final line with no newline is a torn write and is ignored.  Returns
/// the first refusal as "path:line: reason", or nullopt.  `intact_end`
/// gets the end of the last line read: where to truncate before appending.
template <typename Read>
std::optional<std::string> read_lines(std::string_view text,
                                      std::string_view path, Read&& read,
                                      std::size_t* intact_end = nullptr) {
  std::size_t pos = 0;
  for (std::size_t line = 1;; ++line) {
    if (intact_end != nullptr) *intact_end = pos;
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) return std::nullopt;
    LineScanner in(text.substr(pos, eol - pos));
    if (!read(in) || !in.end()) {
      return std::string(path) + ":" + std::to_string(line) + ": " +
             in.error();
    }
    pos = eol + 1;
  }
}

// -- the one writer -----------------------------------------------------
//
// Records, the checkpoint journal and their headers are written by
// `BufferWriter`, whose `escaped` is the one JSON string escaper (streamed
// writers call it through `write_json_string`): one pass over a caller's
// `char` buffer that copies each literal with one memcpy of its
// compile-time size and prints each number with std::to_chars, not
// snprintf.  The frame then goes into its output
// with one append.  Integers come out as plain decimal (hex for `hex`),
// and to_chars(general, 17) is specified to match printf "%.17g", so every
// double round-trips exactly through `LineScanner::number`.

/// The widest decimal spelling of a `T`, sign included.
template <typename T>
inline constexpr std::size_t kMaxDecimalChars =
    std::numeric_limits<T>::digits10 + 1 + (std::is_signed_v<T> ? 1 : 0);
/// The widest %.17g double: sign, 17 digits, point and `e-308`.
inline constexpr std::size_t kMaxNumberChars = 24;
/// The widest lowercase hex u64.
inline constexpr std::size_t kMaxHexChars = 16;
/// The widest `BufferWriter::escaped` spelling of `n` bytes: quotes, and
/// six bytes (`\u00XX`) per byte.
constexpr std::size_t max_escaped_chars(std::size_t n) { return 2 + 6 * n; }

/// The longest line an object with these members can take: '{', each
/// member name (as LineScanner::members spells it) with its widest value,
/// the commas between them, '}' and the newline.
template <std::size_t N>
constexpr std::size_t max_line_chars(const std::string_view (&names)[N],
                                     const std::size_t (&widest)[N]) {
  std::size_t n = 2 + (N - 1) + 1;
  for (std::size_t k = 0; k < N; ++k) n += names[k].size() + widest[k];
  return n;
}

/// Writes one frame into a buffer the caller sized for the widest frame it
/// can write: a static_assert against a constexpr bound where the frame is
/// bounded (max_line_chars), a size taken from the data where it is not.
/// No call checks room.
class BufferWriter {
 public:
  explicit BufferWriter(char* buf) : begin_(buf), p_(buf) {}

  void put(char c) { *p_++ = c; }

  void text(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

  /// Member `k` of an object named in `names`: the ',' before every
  /// member but the first, then the name as written (`"cat":`).
  template <std::size_t N>
  void member(const std::string_view (&names)[N], std::size_t k) {
    if (k > 0) put(',');
    text(names[k]);
  }

  /// A string that needs no escaping, in quotes.
  void quoted(std::string_view s) {
    put('"');
    text(s);
    put('"');
  }

  /// `s` in quotes, with the escapes `LineScanner::escaped` reads: `\"`,
  /// `\\`, `\n`, `\t`, and `\u00XX` (lowercase hex) for any other
  /// control byte.  Every other byte is copied as it is.
  void escaped(std::string_view s) {
    put('"');
    for (const char c : s) {
      switch (c) {
        case '"': text("\\\""); break;
        case '\\': text("\\\\"); break;
        case '\n': text("\\n"); break;
        case '\t': text("\\t"); break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            text("\\u00");
            put("0123456789abcdef"[c >> 4]);
            put("0123456789abcdef"[c & 0xf]);
          } else {
            put(c);
          }
      }
    }
    put('"');
  }

  void flag(bool b) { put(b ? '1' : '0'); }

  template <std::integral T>
  void integer(T v) {
    p_ = std::to_chars(p_, p_ + kMaxDecimalChars<T>, v).ptr;
  }

  /// An enumerator as its underlying integer.
  template <typename E>
    requires std::is_enum_v<E>
  void enumerator(E e) {
    integer(static_cast<std::underlying_type_t<E>>(e));
  }

  void hex(std::uint64_t v) {
    p_ = std::to_chars(p_, p_ + kMaxHexChars, v, 16).ptr;
  }

  /// A double as %.17g prints it.  1 and +0 are most records' weights and
  /// skip to_chars; -0.0 is not +0 (its sign bit is set) and prints "-0".
  void number(double v) {
    if (v == 1.0) {
      put('1');
    } else if (std::bit_cast<std::uint64_t>(v) == 0) {
      put('0');
    } else {
      p_ = std::to_chars(p_, p_ + kMaxNumberChars, v,
                         std::chars_format::general, 17)
               .ptr;
    }
  }

  /// `v`'s bytes, least significant first, on any host.
  template <std::unsigned_integral T>
  void little_endian(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p_, &v, sizeof v);
      p_ += sizeof v;
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        put(static_cast<char>(v >> (8 * i)));
      }
    }
  }

  /// Appends the frame to `out`, which grows as it would if the frame were
  /// appended a byte at a time: its capacity doubles until the frame fits.
  /// One plain append would size `out` to its first frame and double from
  /// there, shifting every later allocation of a stream built frame by
  /// frame; on a 30,000-record binary export that moved glibc's heap enough
  /// to raise peak RSS by 17% and slow the read-back that followed by 35%.
  void append_to(std::string& out) const {
    const std::size_t need = out.size() + size();
    if (need > out.capacity()) {
      std::size_t capacity = out.capacity();
      while (capacity < need) capacity *= 2;
      out.reserve(capacity);
    }
    out.append(begin_, size());
  }

  std::size_t size() const { return static_cast<std::size_t>(p_ - begin_); }
  std::string_view view() const { return {begin_, size()}; }

 private:
  char* begin_;
  char* p_;
};

/// Writes `s` to `os` as `BufferWriter::escaped` does: the one JSON string
/// escaper for every writer, streamed or buffered.
inline void write_json_string(std::ostream& os, std::string_view s) {
  std::string buf(max_escaped_chars(s.size()), '\0');
  BufferWriter w(buf.data());
  w.escaped(s);
  os.write(buf.data(), static_cast<std::streamsize>(w.size()));
}

}  // namespace xentry::obs
