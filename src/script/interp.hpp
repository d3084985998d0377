// A from-scratch interpreter for a Tcl subset.
//
// The paper argues (§2.3) that the right scripting vehicle is "a popular
// interpreted language with a collection of predefined libraries" and picks
// Tcl: the PFI tool evaluates a *send filter* script and a *receive filter*
// script inside persistent interpreter objects, and C-coded commands are
// registered into the interpreter for message operations. This module
// reproduces that surface without an external Tcl dependency:
//
//   * Tcl syntax: command words; `$var`/`${var}` substitution; `[...]`
//     command substitution; `{...}` literal braces; `"..."` quoting;
//     backslash escapes; `#` comments; `;`/newline separators.
//   * Core commands: set/unset/incr/append, expr, if/elseif/else, while,
//     for, foreach, break/continue/return, proc+global, catch/error, eval,
//     puts, string ops (incl. glob `string match`), list ops, format, info.
//   * Host commands registered from C++ (`Interp::register_command`) — these
//     are the paper's "user-defined procedures written in C and linked into
//     the tool".
//
// Interpreter state (variables, procs) persists across eval() calls, so a
// filter script can keep counters across messages, exactly as §3 describes.
// The grammar lives in parse.hpp; eval() runs its parse trees, each text
// parsed once and then served from a per-interpreter cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "script/parse.hpp"

namespace pfi::script {

/// Tcl-style result codes. Error carries the message in `value`.
enum class Code { kOk, kError, kReturn, kBreak, kContinue };

struct Result {
  Code code = Code::kOk;
  std::string value;
  /// For errors: 1-based line of the top-level command (within the script
  /// text handed to the outermost eval()) that raised or propagated the
  /// error. 0 = unknown (e.g. results built outside eval). Each eval()
  /// level re-stamps, so the surviving value is relative to the script the
  /// caller actually passed in — a filter file, a setup section — which is
  /// what error reporting wants.
  int line = 0;

  static Result ok(std::string v = {}) { return {Code::kOk, std::move(v)}; }
  static Result error(std::string msg) {
    return {Code::kError, std::move(msg)};
  }
  [[nodiscard]] bool is_ok() const { return code == Code::kOk; }
  [[nodiscard]] bool is_error() const { return code == Code::kError; }
};

/// Join elements into a canonical Tcl list (bracing elements as needed).
std::string make_list(const std::vector<std::string>& elems);

/// Tcl-style glob match (`*`, `?`, `[a-z]`).
bool glob_match(std::string_view pattern, std::string_view text);

/// How many distinct script texts (and, separately, expression texts) one
/// interpreter keeps parsed. Text that misses a full cache is parsed for
/// that evaluation only, so computed `eval` strings cannot grow it.
inline constexpr std::size_t kParseCacheCapacity = 256;

class Interp {
 public:
  using Command =
      std::function<Result(Interp&, const std::vector<std::string>&)>;

  /// Intrinsic execution counters, always on (each is one integer add on an
  /// already-expensive path). A campaign exports them per cell into the
  /// metrics registry: eval volume and loop-guard ticks are the observable
  /// "how hard did the filter scripts work" signal.
  struct Stats {
    std::uint64_t evals = 0;             // eval() entries (incl. nested)
    std::uint64_t commands = 0;          // command dispatches
    std::uint64_t loop_ticks = 0;        // while/for/foreach iterations
    std::uint64_t watchdog_probes = 0;   // watchdog_tripped() samples
  };

  Interp();
  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  /// Evaluate a script (sequence of commands). Break/Continue escaping a
  /// top-level script are reported as errors by callers that care.
  Result eval(std::string_view script);

  /// Evaluate an expression string (the `expr` engine). Substitutes its own
  /// `$`/`[...]`/`"..."` operands, like Tcl's expr on braced arguments.
  Result eval_expr(std::string_view expr);

  /// Register a host command (overwrites any existing binding).
  void register_command(std::string name, Command fn);
  void unregister_command(const std::string& name);
  [[nodiscard]] bool has_command(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> command_names() const;

  /// Variable access in the *current* frame (global frame between evals).
  [[nodiscard]] std::optional<std::string> get_var(
      const std::string& name) const;
  void set_var(const std::string& name, std::string value);
  bool unset_var(const std::string& name);
  /// All variable names visible in the current frame (array elements are
  /// stored as "name(key)" entries).
  [[nodiscard]] std::vector<std::string> var_names() const;

  /// Variable access that always targets the global frame — used by the PFI
  /// layer's cross-interpreter state sharing (send filter pokes a variable
  /// in the receive filter's interpreter and vice versa, §3).
  [[nodiscard]] std::optional<std::string> get_global(
      const std::string& name) const;
  void set_global(const std::string& name, std::string value);

  /// Everything `puts` wrote since the last take_output().
  [[nodiscard]] const std::string& output() const { return output_; }
  std::string take_output();

  /// Recursion / runaway-loop guards.
  void set_max_depth(int depth) { max_depth_ = depth; }
  void set_max_loop_iterations(std::uint64_t n) { max_loop_iters_ = n; }
  [[nodiscard]] std::uint64_t max_loop_iterations() const {
    return max_loop_iters_;
  }

  /// External execution watchdog. The callback is sampled during command
  /// dispatch and on every loop iteration (at a stride, so the common case
  /// costs one counter increment); once it returns true the interpreter
  /// aborts every evaluation with a "watchdog" error until the callback is
  /// replaced. This is how a campaign wall-clock budget reaches a script
  /// that spins inside one filter invocation and therefore never returns
  /// to the scheduler.
  void set_watchdog(std::function<bool()> cb) {
    watchdog_ = std::move(cb);
    watchdog_tripped_cache_ = false;
  }
  /// True once the watchdog has fired (sampled; sticky until reset).
  [[nodiscard]] bool watchdog_tripped() {
    if (watchdog_tripped_cache_) return true;
    if (!watchdog_) return false;
    if ((++watchdog_probe_ & 0xFFu) != 0) return false;
    ++stats_.watchdog_probes;
    watchdog_tripped_cache_ = watchdog_();
    return watchdog_tripped_cache_;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Loop builtins report each iteration (one add; the guard check already
  /// pays a comparison there).
  void note_loop_tick() { ++stats_.loop_ticks; }

  // --- internals shared with builtins (public for the command library) ---
  struct Frame {
    std::map<std::string, std::string> vars;
    std::set<std::string> globals;  // names aliased to the global frame
  };
  Result invoke(const std::vector<std::string>& words);
  void push_frame() { frames_.emplace_back(); }
  void pop_frame() {
    if (frames_.size() > 1) frames_.pop_back();
  }
  void mark_global(const std::string& name);
  void append_output(std::string_view text) { output_ += text; }

 private:
  friend class ExprParser;
  void install_builtins();

  /// Evaluate a parsed script: the body of eval() and of `[...]`.
  Result run(const parse::Script& script);
  /// Append the value of `parts` (of word `w`) to `out`.
  Result subst(const parse::Word& w, const std::vector<parse::Part>& parts,
               std::string& out);

  struct TextHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Parse trees by source text. Entries are never evicted, so a tree stays
  /// valid while it runs, even if a nested evaluation adds to the cache.
  template <typename T>
  using ParseCache =
      std::unordered_map<std::string, T, TextHash, std::equal_to<>>;
  ParseCache<parse::Script> scripts_;
  ParseCache<std::vector<parse::Operand>> exprs_;

  /// The cached tree for `text`; once the cache is full, a fresh one parsed
  /// into `scratch`.
  template <typename T, typename Parse>
  static const T& parsed(ParseCache<T>& cache, std::string_view text,
                         T& scratch, Parse parse) {
    if (auto it = cache.find(text); it != cache.end()) return it->second;
    if (cache.size() >= kParseCacheCapacity) return scratch = parse(text);
    return cache.emplace(text, parse(text)).first->second;
  }

  std::map<std::string, Command> commands_;
  std::vector<Frame> frames_;  // frames_[0] is the global frame
  std::string output_;
  int depth_ = 0;
  int max_depth_ = 200;
  std::uint64_t max_loop_iters_ = 10'000'000;
  std::function<bool()> watchdog_;
  std::uint64_t watchdog_probe_ = 0;
  bool watchdog_tripped_cache_ = false;
  Stats stats_;
};

/// Numeric/string value used by the expression engine; exposed for tests.
struct ExprValue {
  enum class Kind { kInt, kDouble, kString } kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  static ExprValue from_int(std::int64_t v);
  static ExprValue from_double(double v);
  static ExprValue from_string(std::string v);
  static ExprValue from_bool(bool b) { return from_int(b ? 1 : 0); }

  [[nodiscard]] bool is_numeric() const { return kind != Kind::kString; }
  [[nodiscard]] double as_double() const;
  [[nodiscard]] bool truthy() const;
  [[nodiscard]] std::string str() const;

  /// Parse a string into int/double/string (Tcl numeric rules, 0x hex ok).
  static ExprValue parse(std::string_view text);
};

}  // namespace pfi::script
