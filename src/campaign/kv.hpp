// Length-prefixed key/value entries and the strict number reads behind
// every byte boundary.
//
// Entries are a flat sequence of `key len\nbytes\n`. The fork sandbox
// streams RunResults this way (campaign/sandbox.hpp) and every fabric frame
// payload is built from them (fabric/wire.hpp). The format is trivially
// lossless (values may contain any byte, including newlines) and trivially
// skippable (unknown keys are forward compatibility, not errors). Doubles
// travel as C99 hex floats, so there is no precision policy to keep in sync
// across machines.
//
// The numeric reads below are the only place a decoder turns text into a
// number: kv payloads, spec and `.pdt` sources and the JSON reader
// (campaign/json.hpp) all go through them. A token that is empty, carries
// a sign where none is allowed, has trailing bytes or does not fit the
// destination type is rejected, never saturated, wrapped or truncated.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace pfi::campaign::kv {

inline void put(std::string* out, const char* key, std::string_view v) {
  *out += key;
  *out += ' ';
  *out += std::to_string(v.size());
  *out += '\n';
  out->append(v.data(), v.size());
  *out += '\n';
}

inline void put_u64(std::string* out, const char* key, std::uint64_t v) {
  put(out, key, std::to_string(v));
}

inline void put_i64(std::string* out, const char* key, std::int64_t v) {
  put(out, key, std::to_string(v));
}

/// Doubles travel as C99 hex floats: exact round-trip, no locale.
inline void put_double(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  put(out, key, buf);
}

/// Strict decimal read of the whole token into an integer of type T: no
/// whitespace, no '+', a '-' only for signed T, and the value must fit T.
/// *out is untouched on failure.
template <typename T>
[[nodiscard]] bool to_int(std::string_view v, T* out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T r{};
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, r, 10);
  if (ec != std::errc() || p != end) return false;
  *out = r;
  return true;
}

/// Strict read of a whole number of `unit`s (seconds, milliseconds...) into
/// an int64 count of base units; false when the product overflows.
[[nodiscard]] inline bool to_scaled(std::string_view v, std::int64_t unit,
                                    std::int64_t* out) {
  std::int64_t n = 0;
  return to_int(v, &n) && !__builtin_mul_overflow(n, unit, out);
}

/// Strict read of a finite double: a C99 hex float as put_double writes it
/// ("-0x1.8p+3") or a plain decimal, consuming the whole token.
[[nodiscard]] inline bool to_double(std::string_view v, double* out) {
  std::string_view body = v;
  const bool neg = !body.empty() && body[0] == '-';
  if (neg) body.remove_prefix(1);
  auto fmt = std::chars_format::general;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    body.remove_prefix(2);
    fmt = std::chars_format::hex;
  }
  if (body.empty() || body[0] == '-') return false;
  double r = 0;
  const char* end = body.data() + body.size();
  const auto [p, ec] = std::from_chars(body.data(), end, r, fmt);
  if (ec != std::errc() || p != end || !std::isfinite(r)) return false;
  *out = neg ? -r : r;
  return true;
}

/// Numeric-read health across one decode: any token that fails a strict
/// read poisons `ok`, and the decoder rejects the whole payload instead of
/// acting on a misparsed value.
struct Num {
  bool ok = true;

  template <typename T>
  bool read(std::string_view v, T* out) {
    bool good = false;
    if constexpr (std::is_floating_point_v<T>) {
      good = to_double(v, out);
    } else {
      good = to_int(v, out);
    }
    ok = ok && good;
    return good;
  }
};

/// Cursor over `key len\nbytes\n` entries. Unknown keys are skipped by the
/// caller; a malformed entry ends the scan (next() returns false).
struct Scan {
  std::string_view bytes;
  std::size_t pos = 0;

  bool next(std::string* key, std::string* value) {
    if (pos >= bytes.size()) return false;
    const std::size_t sp = bytes.find(' ', pos);
    if (sp == std::string_view::npos) return false;
    const std::size_t nl = bytes.find('\n', sp + 1);
    if (nl == std::string_view::npos) return false;
    // Digits only and no saturation: the payload is parsed pre-auth, so a
    // hostile length token must die here, not in the bounds arithmetic.
    std::uint64_t len = 0;
    if (!to_int(bytes.substr(sp + 1, nl - sp - 1), &len)) return false;
    // Overflow-proof bounds: the value plus its trailing '\n' must fit in
    // what remains after the header newline. The naive `nl + 1 + len + 1`
    // wraps for a crafted len, passing the check into an OOB read — or
    // sends `pos` backwards so the scan re-parses the same entry forever.
    if (nl + 2 > bytes.size() || len > bytes.size() - (nl + 2)) return false;
    if (bytes[nl + 1 + len] != '\n') return false;
    key->assign(bytes.substr(pos, sp - pos));
    value->assign(bytes.substr(nl + 1, len));
    pos = nl + 1 + len + 1;
    return true;
  }
};

}  // namespace pfi::campaign::kv
