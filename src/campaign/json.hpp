// Minimal JSON writer shared by the campaign engine and bench/, and the
// reader for the documents it produces.
//
// Campaign results must be machine-readable and byte-reproducible: the
// determinism-under-parallelism guarantee is "the per-run record is identical
// whatever --jobs was", which only holds if serialisation itself is
// deterministic. So this writer is deliberately dumb: no maps, no reflection,
// no locale — keys appear exactly in the order the caller emits them, doubles
// are formatted with a fixed printf spec, and the output carries no
// whitespace the caller didn't ask for.
//
// The reader (parse) is how journals, corpus JSONL, cached records and
// daemon DONE documents are read back. It covers the grammar the writer emits —
// objects, arrays, strings with \"\\/bfnrt and \u00XX escapes, numbers,
// true/false/null — and nothing more: anything else fails with nullopt.
// Number tokens keep their text and integers are read through the strict
// reads of campaign/kv.hpp, so a u64 seed or count comes back exact and a
// fraction or out-of-range value is an error, never a truncation.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "campaign/kv.hpp"

namespace pfi::campaign::json {

/// Escape a string for inclusion inside JSON quotes.
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streaming writer with comma bookkeeping. Usage:
///
///   Writer w;
///   w.begin_object().key("verdict").value("pass").key("n").value(3)
///    .end_object();
///   std::string doc = w.str();
class Writer {
 public:
  Writer& begin_object() {
    pre_value();
    out_ += '{';
    fresh_.push_back(true);
    return *this;
  }
  Writer& end_object() {
    out_ += '}';
    fresh_.pop_back();
    return *this;
  }
  Writer& begin_array() {
    pre_value();
    out_ += '[';
    fresh_.push_back(true);
    return *this;
  }
  Writer& end_array() {
    out_ += ']';
    fresh_.pop_back();
    return *this;
  }

  Writer& key(std::string_view k) {
    comma();
    out_ += '"';
    out_ += escape(k);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  Writer& value(std::string_view v) {
    pre_value();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
    return *this;
  }
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(const std::string& v) { return value(std::string_view(v)); }
  Writer& value(bool b) {
    pre_value();
    out_ += b ? "true" : "false";
    return *this;
  }
  Writer& value(std::int64_t n) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
    pre_value();
    out_ += buf;
    return *this;
  }
  Writer& value(std::uint64_t n) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(n));
    pre_value();
    out_ += buf;
    return *this;
  }
  Writer& value(int n) { return value(static_cast<std::int64_t>(n)); }
  /// Fixed three-decimal formatting: enough for millisecond-resolution
  /// timings, and stable across platforms/locales.
  Writer& value(double d) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", d);
    pre_value();
    out_ += buf;
    return *this;
  }
  /// Splice pre-serialised JSON verbatim (e.g. a cached per-run record).
  Writer& value_raw(std::string_view json) {
    pre_value();
    out_ += json;
    return *this;
  }

  /// key+value in one call.
  template <typename V>
  Writer& kv(std::string_view k, V&& v) {
    return key(k).value(std::forward<V>(v));
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma() {
    if (!fresh_.empty()) {
      if (!fresh_.back()) out_ += ',';
      fresh_.back() = false;
    }
  }
  void pre_value() {
    if (pending_value_) {
      pending_value_ = false;  // key() already placed the comma
    } else {
      comma();
    }
  }

  std::string out_;
  std::vector<bool> fresh_;  // per nesting level: no element emitted yet
  bool pending_value_ = false;
};

// --- reader ------------------------------------------------------------------

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // kString: the unescaped contents; kNumber: the token
  std::vector<Value> items;                           // kArray
  std::vector<std::pair<std::string, Value>> fields;  // kObject, in order
  std::size_t begin = 0, end = 0;  // this value's bytes in the parsed text

  [[nodiscard]] const Value* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::string str_or(std::string_view key,
                                   const std::string& fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->text : fallback;
  }
  /// Strict integer read of this number (kv::to_int).
  template <typename T>
  [[nodiscard]] bool to_int(T* out) const {
    return kind == Kind::kNumber && kv::to_int(text, out);
  }
  /// Field `key` read as an integer; an absent key leaves *out and passes.
  template <typename T>
  [[nodiscard]] bool int_field(std::string_view key, T* out) const {
    const Value* v = find(key);
    return v == nullptr || v->to_int(out);
  }
};

namespace detail {

struct Reader {
  /// Nesting cap: our documents are a few levels deep, and hostile input
  /// must not recurse the stack away.
  static constexpr int kMaxDepth = 64;

  std::string_view s;
  std::size_t i = 0;
  int depth = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool lit(std::string_view t) {
    if (s.compare(i, t.size(), t) != 0) return false;
    i += t.size();
    return true;
  }
  bool eat(char c) {
    ws();
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  }
  bool digits() {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      char c = s[i];
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (++i >= s.size()) return false;
        switch (s[i]) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            // \u00XX only: the writer escapes single control bytes.
            unsigned code = 0;
            if (i + 4 >= s.size()) return false;
            const char* first = s.data() + i + 1;
            const auto [p, ec] = std::from_chars(first, first + 4, code, 16);
            if (ec != std::errc() || p != first + 4 || code > 0xFF) {
              return false;
            }
            c = static_cast<char>(code);
            i += 4;
            break;
          }
          default: return false;
        }
      }
      out->push_back(c);
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number() {
    if (i < s.size() && s[i] == '-') ++i;
    if (i < s.size() && s[i] == '0') {
      ++i;
    } else if (!digits()) {
      return false;
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (!digits()) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return true;
  }

  template <typename Elem>
  bool sequence(char close, Elem elem) {
    if (eat(close)) return true;
    do {
      if (!elem()) return false;
    } while (eat(','));
    return eat(close);
  }

  bool value(Value* out) {
    ws();
    if (i >= s.size() || depth >= kMaxDepth) return false;
    out->begin = i;
    bool good = false;
    switch (s[i]) {
      case '{':
        ++i;
        ++depth;
        out->kind = Value::Kind::kObject;
        good = sequence('}', [&] {
          std::string key;
          Value v;
          if (!string(&key) || !eat(':') || !value(&v)) return false;
          out->fields.emplace_back(std::move(key), std::move(v));
          return true;
        });
        --depth;
        break;
      case '[':
        ++i;
        ++depth;
        out->kind = Value::Kind::kArray;
        good = sequence(']', [&] {
          out->items.emplace_back();
          return value(&out->items.back());
        });
        --depth;
        break;
      case '"':
        out->kind = Value::Kind::kString;
        good = string(&out->text);
        break;
      case 't':
        out->kind = Value::Kind::kBool;
        out->boolean = true;
        good = lit("true");
        break;
      case 'f':
        out->kind = Value::Kind::kBool;
        good = lit("false");
        break;
      case 'n':
        good = lit("null");
        break;
      default:
        out->kind = Value::Kind::kNumber;
        good = number();
        if (good) out->text.assign(s.substr(out->begin, i - out->begin));
    }
    out->end = i;
    return good;
  }
};

}  // namespace detail

/// Parse one JSON document; nullopt on any syntax error or trailing junk.
inline std::optional<Value> parse(std::string_view text) {
  detail::Reader r{text};
  Value v;
  if (!r.value(&v)) return std::nullopt;
  r.ws();
  if (r.i != text.size()) return std::nullopt;
  return v;
}

}  // namespace pfi::campaign::json
