// One declarative flag table for every command-line tool.
//
// A CLI declares its flags as rows (name, value placeholder, one help line
// and a destination) and Parser does the rest: `--name value` and
// `--name=value` for every flag that takes a value (an optional value
// attaches only with `=`, as in `--lint` / `--lint=strict`); numbers read
// through kv::to_int into the field's own type, so `10k`, `abc`, `1e3`,
// `-1` into an unsigned field or an out-of-range value is an error, never
// a silent 0 or a saturated value; an environment fallback for rows that
// name a variable; and `--help` / `-h` usage generated from the rows. A
// missing value, an unknown flag or a bad value prints one message naming
// the flag, and parse() returns exit code 2.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "campaign/kv.hpp"

namespace pfi::campaign::flags {

struct Flag {
  std::string name;   // "--jobs"
  std::string value;  // placeholder ("N", "FILE"); empty = a switch
  std::string help;
  std::string want;   // what a good value looks like, for the message
  /// Stores a value; false rejects it. Switches are called with "".
  std::function<bool(std::string_view)> set;
  bool optional_value = false;  // the value attaches only as `--name=v`
  const char* env = nullptr;    // read when the flag is absent
};

/// Any destination: `set` validates and stores.
inline Flag custom(std::string name, std::string value, std::string help,
                   std::string want, std::function<bool(std::string_view)> set,
                   bool optional_value = false) {
  return {std::move(name), std::move(value), std::move(help),
          std::move(want), std::move(set), optional_value};
}

/// A switch: present = true.
inline Flag toggle(std::string name, std::string help, bool* dst) {
  return custom(std::move(name), "", std::move(help), "",
                [dst](std::string_view) {
                  *dst = true;
                  return true;
                });
}

/// A string; the last occurrence wins. `env` names a variable read when
/// the flag is absent.
inline Flag text(std::string name, std::string value, std::string help,
                 std::string* dst, const char* env = nullptr) {
  Flag f = custom(std::move(name), std::move(value), std::move(help), "",
                  [dst](std::string_view v) {
                    dst->assign(v);
                    return true;
                  });
  f.env = env;
  return f;
}

/// A repeatable string: every occurrence appends.
inline Flag repeated(std::string name, std::string value, std::string help,
                     std::vector<std::string>* dst) {
  return custom(std::move(name), std::move(value), std::move(help), "",
                [dst](std::string_view v) {
                  dst->emplace_back(v);
                  return true;
                });
}

/// An integer read strictly into the field's own type.
template <typename T>
Flag number(std::string name, std::string value, std::string help, T* dst) {
  return custom(std::move(name), std::move(value), std::move(help),
                std::is_signed_v<T> ? "an integer" : "a non-negative integer",
                [dst](std::string_view v) { return kv::to_int(v, dst); });
}

class Parser {
 public:
  /// `synopsis` lines follow the program name in the usage.
  Parser(std::string prog, std::vector<std::string> synopsis,
         std::vector<Flag> rows)
      : prog_(std::move(prog)),
        synopsis_(std::move(synopsis)),
        rows_(std::move(rows)) {}

  /// Parse argv[1..]. Returns -1 when the program should go on, otherwise
  /// its exit code: 0 after --help, 2 after an error (already printed).
  int parse(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  /// True when `name` was on the command line (or came from its env var).
  [[nodiscard]] bool given(const std::string& name) const {
    return given_.count(name) != 0;
  }
  [[nodiscard]] std::string usage() const;

  /// Print "<prog>: <msg>" to stderr; returns 2, the usage exit code.
  int fail(const std::string& msg) const;

 private:
  bool apply(const Flag& f, std::string_view value);

  std::string prog_;
  std::vector<std::string> synopsis_;
  std::vector<Flag> rows_;
  std::vector<std::string> positionals_;
  std::set<std::string> given_;
};

}  // namespace pfi::campaign::flags
