#include "lint/flow.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "script/interp.hpp"
#include "script/parse.hpp"

namespace pfi::lint::flow {

namespace {

using cfg::Block;
using cfg::CpKind;
using cfg::Stmt;
using cfg::Unit;

constexpr std::uint64_t kInfiniteTrips =
    std::numeric_limits<std::uint64_t>::max();

bool parse_int(const std::string& s, long long* out) {
  if (s.empty() || s.size() > 18) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  long long v = 0;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i])) == 0) return false;
    v = v * 10 + (s[i] - '0');
  }
  *out = s[0] == '-' ? -v : v;
  return true;
}

// -- constant propagation -----------------------------------------------------

/// Per-program-point environment of the flat constant lattice. `valid` is
/// false for points no path has reached yet (bottom); a name missing from
/// `vals` is not-a-constant (top).
struct ConstEnv {
  bool valid = false;
  std::map<std::string, std::string> vals;

  bool operator==(const ConstEnv& o) const {
    return valid == o.valid && vals == o.vals;
  }
};

void meet_into(ConstEnv* a, const ConstEnv& b) {
  if (!b.valid) return;
  if (!a->valid) {
    *a = b;
    return;
  }
  for (auto it = a->vals.begin(); it != a->vals.end();) {
    const auto jt = b.vals.find(it->first);
    if (jt == b.vals.end() || jt->second != it->second) {
      it = a->vals.erase(it);
    } else {
      ++it;
    }
  }
}

void transfer(const Stmt& s, const Env& env, ConstEnv* ce) {
  // `incr` reads the old value before the defs-erase below clobbers it.
  std::optional<std::string> incr_result;
  if (s.cp == CpKind::kIncr) {
    const auto it = ce->vals.find(s.cp_var);
    long long step = 0;
    long long old = 0;
    if (it != ce->vals.end() && parse_int(s.cp_value, &step) &&
        parse_int(it->second, &old)) {
      incr_result = std::to_string(old + step);
    }
  }
  if (s.head.empty() || s.head == "eval") ce->vals.clear();
  if (env.proc_writes != nullptr) {
    const auto pit = env.proc_writes->find(s.head);
    if (pit != env.proc_writes->end()) {
      if (pit->second.contains("*")) {
        // Dynamic proc body: may write anything.
        ce->vals.clear();
      } else {
        for (const std::string& n : pit->second) ce->vals.erase(n);
      }
    }
  }
  for (const cfg::VarDef& d : s.defs) ce->vals.erase(d.name);
  for (const std::string& k : s.kills) ce->vals.erase(k);
  if (s.cp == CpKind::kSetConst) {
    ce->vals[s.cp_var] = s.cp_value;
  } else if (incr_result.has_value()) {
    ce->vals[s.cp_var] = *incr_result;
  }
}

/// Result of trying to fold a guard at one program point.
struct Fold {
  enum class State { kNone, kFolded, kBadExpr };
  State state = State::kNone;
  bool truthy = false;
  std::string error;  // kBadExpr only
  /// Variables substituted from the environment, in first-use order.
  std::vector<std::pair<std::string, std::string>> substs;
};

/// The scalar variable an expression operand reads; empty for anything else
/// (array element, string, command substitution, malformed reference).
std::string scalar_read(const script::parse::Operand& op) {
  const auto& parts = op.word.parts;
  if (parts.size() != 1 || parts[0].kind != script::parse::Part::Kind::kVar ||
      parts[0].array) {
    return {};
  }
  return parts[0].text;
}

/// Substitute integer-constant variables into the guard text and run it
/// through the real expression engine. Gives up (kNone) on any variable
/// that is non-constant, non-integer, an array element, or when `ce` is
/// null/invalid. A guard with no `$` at all evaluates unconditionally —
/// that is exactly the v1 constant-condition path, and only there does an
/// evaluation error surface as bad-expr.
Fold fold_guard(const cfg::Guard& g, const ConstEnv* ce, const Env& env) {
  Fold f;
  if (!g.foldable || env.folder == nullptr) return f;
  const std::string& t = g.text;
  const bool has_dollar = t.find('$') != std::string::npos;
  std::string sub;
  std::size_t copied = 0;
  std::vector<std::pair<std::string, std::string>> substs;
  for (const script::parse::Operand& op : script::parse::scan_expr(t)) {
    // Strings, [...] and a bare '$' go to the engine as written.
    if (t[op.begin] != '$' || op.word.literal()) continue;
    const std::string name = scalar_read(op);
    if (name.empty()) return f;  // array element or malformed reference
    if (ce == nullptr || !ce->valid) return f;
    const auto it = ce->vals.find(name);
    long long v = 0;
    if (it == ce->vals.end() || !parse_int(it->second, &v)) return f;
    sub.append(t, copied, op.begin - copied);
    sub += "(" + it->second + ")";  // parens keep negatives atomic
    copied = op.end;
    bool seen = false;
    for (const auto& [n, _] : substs) seen = seen || n == name;
    if (!seen) substs.emplace_back(name, it->second);
  }
  sub.append(t, copied);
  const script::Result r = env.folder->eval_expr(sub);
  if (r.is_error()) {
    if (!has_dollar) {
      f.state = Fold::State::kBadExpr;
      f.error = r.value;
    }
    return f;
  }
  f.state = Fold::State::kFolded;
  f.truthy = script::ExprValue::parse(r.value).truthy();
  f.substs = std::move(substs);
  return f;
}

std::string fold_hint(const Fold& f) {
  if (f.substs.empty()) return {};
  std::string h = "folded with ";
  for (std::size_t i = 0; i < f.substs.size(); ++i) {
    if (i != 0) h += ", ";
    h += f.substs[i].first + " = " + f.substs[i].second;
  }
  return h;
}

/// v1's over-approximated escape check, in CFG terms: any terminator
/// command anywhere in the body range (even one belonging to a nested
/// loop), or a data brace whose text parses to one.
bool body_escapes(const Unit& u, int header) {
  const Block& h = u.blocks[static_cast<std::size_t>(header)];
  if (h.body_begin < 0 || h.body_end < h.body_begin) return true;
  for (int b = h.body_begin; b < h.body_end; ++b) {
    for (const Stmt& s : u.blocks[static_cast<std::size_t>(b)].stmts) {
      if (s.head == "break" || s.head == "return" || s.head == "error" ||
          s.head == "xCrashProcess" || s.maybe_escape) {
        return true;
      }
    }
  }
  return false;
}

// -- loop intervals -----------------------------------------------------------

/// `$i < 100`-shaped comparison: each side is a scalar variable or an
/// integer literal, one relational operator, nothing else.
struct Cmp {
  std::string lhs, rhs;
  bool lhs_var = false, rhs_var = false;
  std::string op;
};

bool parse_cmp(const std::string& text, Cmp* c) {
  const auto refs = script::parse::scan_expr(text);
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  };
  const auto operand = [&](std::string* out, bool* is_var) -> bool {
    skip_ws();
    if (i >= text.size()) return false;
    if (text[i] == '$') {
      auto ref = refs.begin();
      while (ref != refs.end() && ref->begin != i) ++ref;
      if (ref == refs.end()) return false;
      *out = scalar_read(*ref);
      if (out->empty()) return false;
      i = ref->end;
      *is_var = true;
      return true;
    }
    std::string lit;
    if (text[i] == '-' || text[i] == '+') lit += text[i++];
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      lit += text[i++];
    }
    long long v = 0;
    if (!parse_int(lit, &v)) return false;
    *out = lit;
    *is_var = false;
    return true;
  };
  if (!operand(&c->lhs, &c->lhs_var)) return false;
  skip_ws();
  if (i < text.size() && (text[i] == '<' || text[i] == '>')) {
    c->op = text[i++];
    if (i < text.size() && text[i] == '=') c->op += text[i++];
  } else if (i + 1 < text.size() && (text[i] == '!' || text[i] == '=') &&
             text[i + 1] == '=') {
    c->op = std::string{text[i]} + "=";
    i += 2;
  } else {
    return false;
  }
  if (!operand(&c->rhs, &c->rhs_var)) return false;
  skip_ws();
  return i == text.size();
}

std::string flip_op(const std::string& op) {
  if (op == "<") return ">";
  if (op == ">") return "<";
  if (op == "<=") return ">=";
  if (op == ">=") return "<=";
  return op;  // == and != are symmetric
}

/// Trip count of `for (ctr = v0; ctr OP bound; ctr += step)`. Returns
/// kInfiniteTrips when the counter moves away from (or oscillates around)
/// the bound, nullopt when the shape is outside the model.
std::optional<std::uint64_t> trip_count(long long v0, long long step,
                                        long long bound,
                                        const std::string& op) {
  using I = __int128;
  const I diff = static_cast<I>(bound) - static_cast<I>(v0);
  const auto div_ceil = [](I a, I b) -> std::uint64_t {
    // a, b > 0
    const I q = (a + b - 1) / b;
    if (q > static_cast<I>(std::numeric_limits<std::uint64_t>::max())) {
      return kInfiniteTrips;
    }
    return static_cast<std::uint64_t>(q);
  };
  if (op == "<" || op == "<=") {
    const I room = diff + (op == "<=" ? 1 : 0);  // iterations while true
    if (room <= 0) return 0;
    if (step <= 0) return kInfiniteTrips;
    return div_ceil(room, step);
  }
  if (op == ">" || op == ">=") {
    const I room = -diff + (op == ">=" ? 1 : 0);
    if (room <= 0) return 0;
    if (step >= 0) return kInfiniteTrips;
    return div_ceil(room, -step);
  }
  if (op == "!=") {
    if (diff == 0) return 0;
    if (step == 0) return kInfiniteTrips;
    if (diff % step != 0 || diff / step < 0) return kInfiniteTrips;
    const I q = diff / step;
    if (q > static_cast<I>(std::numeric_limits<std::uint64_t>::max())) {
      return kInfiniteTrips;
    }
    return static_cast<std::uint64_t>(q);
  }
  return std::nullopt;  // ==
}

/// The single `incr` of `name` in the loop body, provided nothing else in
/// the body (other defs, unsets, proc calls that may write it, computed
/// commands) can touch it.
std::optional<long long> body_step(const Unit& u, int header,
                                   const std::string& name, const Env& env) {
  const Block& h = u.blocks[static_cast<std::size_t>(header)];
  if (h.body_begin < 0) return std::nullopt;
  std::optional<long long> step;
  for (int b = h.body_begin; b < h.body_end; ++b) {
    for (const Stmt& s : u.blocks[static_cast<std::size_t>(b)].stmts) {
      if (s.head.empty()) return std::nullopt;  // computed command
      if (env.proc_writes != nullptr) {
        const auto pit = env.proc_writes->find(s.head);
        if (pit != env.proc_writes->end() &&
            (pit->second.count(name) != 0 || pit->second.count("*") != 0)) {
          return std::nullopt;
        }
      }
      for (const std::string& k : s.kills) {
        if (k == name) return std::nullopt;
      }
      bool defines = false;
      for (const cfg::VarDef& d : s.defs) defines = defines || d.name == name;
      if (!defines) continue;
      long long v = 0;
      if (s.cp != CpKind::kIncr || s.cp_var != name ||
          !parse_int(s.cp_value, &v) || step.has_value()) {
        return std::nullopt;  // not an incr, or a second mutation
      }
      step = v;
    }
  }
  return step;
}

// -- the analysis -------------------------------------------------------------

class Analysis {
 public:
  Analysis(const Unit& u, const Env& env, const cfg::DiagFn& diag)
      : u_(u), env_(env), diag_(diag), n_(u.blocks.size()) {}

  void run() {
    build_preds();
    constprop_fixpoint();
    emit_guards();
    report_unreachable();
    definite_assignment();
  }

 private:
  const Block& blk(int i) const {
    return u_.blocks[static_cast<std::size_t>(i)];
  }

  void build_preds() {
    preds_.assign(n_, {});
    for (std::size_t b = 0; b < n_; ++b) {
      const auto& succ = u_.blocks[b].succ;
      for (std::size_t si = 0; si < succ.size(); ++si) {
        preds_[static_cast<std::size_t>(succ[si])].push_back(
            {static_cast<int>(b), static_cast<int>(si)});
      }
    }
  }

  bool edge_dead(int from, int idx) const {
    const auto& d = dead_[static_cast<std::size_t>(from)];
    return static_cast<std::size_t>(idx) < d.size() &&
           d[static_cast<std::size_t>(idx)] != 0;
  }

  /// Fixpoint over (envs, dead edges). Monotone both ways: environments
  /// only shrink, so folds only un-fold, so the live edge set only grows.
  void constprop_fixpoint() {
    in_.assign(n_, {});
    out_.assign(n_, {});
    dead_.assign(n_, {});
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 200) {
      changed = false;
      for (std::size_t b = 0; b < n_; ++b) {
        ConstEnv nin;
        if (static_cast<int>(b) == u_.entry) nin.valid = true;
        for (const auto& [p, idx] : preds_[b]) {
          if (!edge_dead(p, idx)) {
            meet_into(&nin, out_[static_cast<std::size_t>(p)]);
          }
        }
        ConstEnv nout = nin;
        if (nout.valid) {
          for (const Stmt& s : u_.blocks[b].stmts) transfer(s, env_, &nout);
        }
        std::vector<char> ndead;
        if (u_.blocks[b].has_guard && u_.blocks[b].succ.size() == 2 &&
            nout.valid && !(u_.dynamic && !u_.blocks[b].guard.vars.empty())) {
          const Fold f = fold_guard(u_.blocks[b].guard, &nout, env_);
          if (f.state == Fold::State::kFolded) {
            // succ[0] is the true edge, succ[1] the false edge.
            ndead = {static_cast<char>(f.truthy ? 0 : 1),
                     static_cast<char>(f.truthy ? 1 : 0)};
          }
        }
        if (!(nin == in_[b]) || !(nout == out_[b]) || ndead != dead_[b]) {
          changed = true;
          in_[b] = std::move(nin);
          out_[b] = std::move(nout);
          dead_[b] = std::move(ndead);
        }
      }
    }
  }

  /// Constant-environment just before a loop header is first entered: the
  /// meet of every predecessor outside the loop's own body.
  ConstEnv preheader_env(int header) const {
    const Block& h = blk(header);
    ConstEnv e;
    for (const auto& [p, idx] : preds_[static_cast<std::size_t>(header)]) {
      if (p == header || (p >= h.body_begin && p < h.body_end)) continue;
      if (!edge_dead(p, idx)) meet_into(&e, out_[static_cast<std::size_t>(p)]);
    }
    return e;
  }

  void emit_guards() {
    for (std::size_t b = 0; b < n_; ++b) {
      const Block& blkb = u_.blocks[b];
      if (!blkb.has_guard) continue;
      const cfg::Guard& g = blkb.guard;
      // Environment folding is off in dynamic units (v1 never judged
      // variables there either); guards with no variables still fold.
      const ConstEnv* ce = nullptr;
      if (out_[b].valid && !(u_.dynamic && !g.vars.empty())) ce = &out_[b];
      const Fold f = fold_guard(g, ce, env_);
      if (f.state == Fold::State::kBadExpr) {
        diag_(Severity::kError, "bad-expr", g.line, g.col,
              "condition {" + g.text + "} fails to evaluate: " + f.error, {});
        continue;
      }
      if (f.state == Fold::State::kFolded) {
        emit_folded(static_cast<int>(b), f);
        continue;
      }
      if (blkb.loop_header && !blkb.implicit_guard) {
        emit_loop_checks(static_cast<int>(b));
      }
    }
  }

  void emit_folded(int b, const Fold& f) {
    const Block& blkb = blk(b);
    const cfg::Guard& g = blkb.guard;
    const std::string fh = fold_hint(f);
    if (!blkb.loop_header) {
      diag_(Severity::kWarning, "constant-condition", g.line, g.col,
            std::string{"condition is always "} +
                (f.truthy ? "true" : "false"),
            fh);
      return;
    }
    if (!f.truthy) {
      diag_(Severity::kWarning, "constant-condition", g.line, g.col,
            "loop condition is always false; the body never runs", fh);
      return;
    }
    if (!body_escapes(u_, b)) {
      std::string hint = "the interpreter will abort it at " +
                         std::to_string(env_.loop_budget) +
                         " iterations; add a break/return or a real guard";
      if (!fh.empty()) hint = fh + "; " + hint;
      diag_(Severity::kError, "infinite-loop", g.line, g.col,
            "loop condition is always true and the body never breaks, "
            "returns or errors",
            hint);
    }
  }

  /// Unfolded while/for guard: the v1 literal-bound scan first (its wording
  /// is load-bearing for existing suppressions), then the interval model,
  /// then the invariant-guard check.
  void emit_loop_checks(int b) {
    const Block& blkb = blk(b);
    const cfg::Guard& g = blkb.guard;
    if (blkb.loop_kind == "while" && g.literal_word &&
        (g.text.find('$') != std::string::npos ||
         g.text.find('[') != std::string::npos) &&
        v1_loop_bound_scan(g)) {
      return;
    }
    if (!u_.dynamic && emit_interval(b)) return;
    emit_invariant(b);
  }

  bool v1_loop_bound_scan(const cfg::Guard& g) {
    const std::string& text = g.text;
    if (text.find('[') != std::string::npos) return false;
    if (text.find('<') == std::string::npos &&
        text.find('>') == std::string::npos) {
      return false;
    }
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) continue;
      std::uint64_t v = 0;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
        v = v * 10 + static_cast<std::uint64_t>(text[i] - '0');
        ++i;
      }
      worst = std::max(worst, v);
    }
    if (worst <= env_.loop_budget) return false;
    diag_(Severity::kWarning, "infinite-loop", g.line, g.col,
          "loop bound " + std::to_string(worst) +
              " exceeds the interpreter's iteration budget (" +
              std::to_string(env_.loop_budget) + ")",
          "the watchdog will cut this loop short at runtime");
    return true;
  }

  /// `set i 0 ... while {$i < $n} { ... incr i ... }`: initial value from
  /// the preheader environment, step from the body's single incr, bound a
  /// literal or preheader constant. Reports zero-trip, budget-busting and
  /// diverging counters.
  bool emit_interval(int b) {
    const Block& blkb = blk(b);
    const cfg::Guard& g = blkb.guard;
    if (!g.foldable) return false;
    Cmp c;
    if (!parse_cmp(g.text, &c)) return false;

    const ConstEnv pre = preheader_env(b);
    if (!pre.valid) return false;
    const auto resolve = [&](const std::string& v,
                             bool is_var) -> std::optional<long long> {
      long long out = 0;
      if (!is_var) {
        if (!parse_int(v, &out)) return std::nullopt;
        return out;
      }
      const auto it = pre.vals.find(v);
      if (it == pre.vals.end() || !parse_int(it->second, &out)) {
        return std::nullopt;
      }
      return out;
    };

    // The counter is the variable side that the body steps.
    std::string ctr;
    std::string op = c.op;
    std::string bound_text;
    bool bound_var = false;
    std::optional<long long> step;
    if (c.lhs_var) {
      step = body_step(u_, b, c.lhs, env_);
      if (step.has_value()) {
        ctr = c.lhs;
        bound_text = c.rhs;
        bound_var = c.rhs_var;
      }
    }
    if (ctr.empty() && c.rhs_var) {
      step = body_step(u_, b, c.rhs, env_);
      if (step.has_value()) {
        ctr = c.rhs;
        op = flip_op(c.op);
        bound_text = c.lhs;
        bound_var = c.lhs_var;
      }
    }
    if (ctr.empty()) return false;
    if (bound_var) {
      // A bound the body rewrites is outside the model.
      if (body_step(u_, b, bound_text, env_).has_value() ||
          body_writes(b, bound_text)) {
        return false;
      }
    }
    const auto v0 = resolve(ctr, true);
    const auto bound = resolve(bound_text, bound_var);
    if (!v0.has_value() || !bound.has_value()) return false;
    const auto trips = trip_count(*v0, *step, *bound, op);
    if (!trips.has_value()) return false;

    if (*trips == 0) {
      diag_(Severity::kWarning, "constant-condition", g.line, g.col,
            "loop condition is always false; the body never runs",
            "folded with " + ctr + " = " + std::to_string(*v0));
      return true;
    }
    if (*trips == kInfiniteTrips) {
      if (body_escapes(u_, b)) return false;
      diag_(Severity::kWarning, "infinite-loop", g.line, g.col,
            "loop counter \"" + ctr + "\" starts at " + std::to_string(*v0) +
                " and steps by " + std::to_string(*step) +
                ", away from its bound " + std::to_string(*bound) +
                "; the loop never exits",
            "the interpreter will abort it at " +
                std::to_string(env_.loop_budget) +
                " iterations; fix the step or add a break");
      return true;
    }
    if (*trips > env_.loop_budget) {
      diag_(Severity::kWarning, "infinite-loop", g.line, g.col,
            "loop runs " + std::to_string(*trips) +
                " iterations, exceeding the interpreter's iteration budget (" +
                std::to_string(env_.loop_budget) + ")",
            "\"" + ctr + "\" starts at " + std::to_string(*v0) +
                " and steps by " + std::to_string(*step) +
                "; the watchdog will cut this loop short at runtime");
      return true;
    }
    return false;
  }

  /// Any body statement that could assign `name` (def, unset, proc call
  /// that may write it, computed command).
  bool body_writes(int header, const std::string& name) const {
    const Block& h = blk(header);
    if (h.body_begin < 0) return false;
    for (int b = h.body_begin; b < h.body_end; ++b) {
      for (const Stmt& s : blk(b).stmts) {
        if (s.head.empty()) return true;
        if (env_.proc_writes != nullptr) {
          const auto pit = env_.proc_writes->find(s.head);
          if (pit != env_.proc_writes->end() &&
              (pit->second.count(name) != 0 ||
               pit->second.count("*") != 0)) {
            return true;
          }
        }
        for (const cfg::VarDef& d : s.defs) {
          if (d.name == name) return true;
        }
        for (const std::string& k : s.kills) {
          if (k == name) return true;
        }
      }
    }
    return false;
  }

  void emit_invariant(int b) {
    const Block& blkb = blk(b);
    const cfg::Guard& g = blkb.guard;
    if (u_.dynamic || !g.foldable || g.vars.empty()) return;
    if (body_escapes(u_, b)) return;
    for (const std::string& v : g.vars) {
      if (body_writes(b, v)) return;
    }
    std::string names;
    std::vector<std::string> uniq;
    for (const std::string& v : g.vars) {
      if (std::find(uniq.begin(), uniq.end(), v) == uniq.end()) {
        uniq.push_back(v);
      }
    }
    for (std::size_t i = 0; i < uniq.size(); ++i) {
      if (i != 0) names += ", ";
      names += "\"" + uniq[i] + "\"";
    }
    diag_(Severity::kWarning, "invariant-loop", g.line, g.col,
          "loop condition {" + g.text + "} never changes inside the body",
          "nothing in the body assigns " + names +
              "; if the loop is entered, only the watchdog stops it");
  }

  // -- unreachable code -------------------------------------------------------

  void report_unreachable() {
    std::vector<bool> covered = cfg::reachable(u_);
    covered[static_cast<std::size_t>(u_.exit)] = true;
    for (std::size_t b = 0; b < n_; ++b) {
      if (covered[b]) continue;
      if (u_.blocks[b].stmts.empty()) continue;  // structural filler
      const Stmt& s0 = u_.blocks[b].stmts.front();
      diag_(Severity::kWarning, "unreachable-code", s0.line, s0.col,
            "command is unreachable (the block already returned)", {});
      // One report per region: everything downstream rides along.
      std::vector<int> work{static_cast<int>(b)};
      covered[b] = true;
      while (!work.empty()) {
        const int x = work.back();
        work.pop_back();
        for (const int s : blk(x).succ) {
          if (!covered[static_cast<std::size_t>(s)]) {
            covered[static_cast<std::size_t>(s)] = true;
            work.push_back(s);
          }
        }
      }
    }
  }

  // -- definite assignment ----------------------------------------------------

  std::vector<std::string> defs_of(const Stmt& s) const {
    std::vector<std::string> out;
    for (const cfg::VarDef& d : s.defs) out.push_back(d.name);
    if (env_.proc_writes != nullptr) {
      const auto pit = env_.proc_writes->find(s.head);
      if (pit != env_.proc_writes->end()) {
        // Lenient: a call that may write the global counts as a write, so
        // helper-initialized state never false-positives. The dynamic-proc
        // wildcard "*" names nothing concrete; skip it (v1 parity: a read
        // only a dynamic proc could satisfy was an error there too).
        for (const std::string& n : pit->second) {
          if (n != "*") out.push_back(n);
        }
      }
    }
    return out;
  }

  void definite_assignment() {
    if (u_.dynamic || u_.presence_checked || !env_.check_use_before_def) {
      return;
    }
    // Universe: names that are assigned somewhere (here or upstream).
    // Reads of names with no assignment at all stay with the
    // flow-insensitive undefined-var pass.
    std::map<std::string, int> index;
    const auto intern = [&](const std::string& n) {
      index.emplace(n, static_cast<int>(index.size()));
    };
    for (const std::string& n : env_.entry_defs) intern(n);
    for (std::size_t b = 0; b < n_; ++b) {
      for (const Stmt& s : u_.blocks[b].stmts) {
        for (const std::string& n : defs_of(s)) intern(n);
      }
    }
    if (index.empty()) return;
    const std::size_t nv = index.size();

    // Liveness under constant-guard pruning.
    std::vector<bool> live(n_, false);
    {
      std::vector<int> work{u_.entry};
      live[static_cast<std::size_t>(u_.entry)] = true;
      while (!work.empty()) {
        const int b = work.back();
        work.pop_back();
        const auto& succ = blk(b).succ;
        for (std::size_t si = 0; si < succ.size(); ++si) {
          if (edge_dead(b, static_cast<int>(si))) continue;
          if (!live[static_cast<std::size_t>(succ[si])]) {
            live[static_cast<std::size_t>(succ[si])] = true;
            work.push_back(succ[si]);
          }
        }
      }
    }

    const std::vector<char> top(nv, 1);
    std::vector<std::vector<char>> bin(n_, top), bout(n_, top);
    bin[static_cast<std::size_t>(u_.entry)].assign(nv, 0);
    for (const std::string& n : env_.entry_defs) {
      bin[static_cast<std::size_t>(u_.entry)]
         [static_cast<std::size_t>(index.at(n))] = 1;
    }
    const auto apply = [&](const Stmt& s, std::vector<char>* bits) {
      for (const std::string& n : defs_of(s)) {
        (*bits)[static_cast<std::size_t>(index.at(n))] = 1;
      }
      for (const std::string& k : s.kills) {
        const auto it = index.find(k);
        if (it != index.end()) {
          (*bits)[static_cast<std::size_t>(it->second)] = 0;
        }
      }
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = 0; b < n_; ++b) {
        if (!live[b]) continue;
        std::vector<char> nin;
        if (static_cast<int>(b) == u_.entry) {
          nin = bin[b];
        } else {
          nin = top;
          for (const auto& [p, idx] : preds_[b]) {
            if (edge_dead(p, idx) || !live[static_cast<std::size_t>(p)]) {
              continue;
            }
            const auto& po = bout[static_cast<std::size_t>(p)];
            for (std::size_t v = 0; v < nv; ++v) {
              nin[v] = static_cast<char>(nin[v] & po[v]);
            }
          }
        }
        std::vector<char> nout = nin;
        for (const Stmt& s : u_.blocks[b].stmts) apply(s, &nout);
        if (nin != bin[b] || nout != bout[b]) {
          changed = true;
          bin[b] = std::move(nin);
          bout[b] = std::move(nout);
        }
      }
    }

    std::set<std::string> reported;
    for (std::size_t b = 0; b < n_; ++b) {
      if (!live[b]) continue;
      std::vector<char> cur = bin[b];
      for (const Stmt& s : u_.blocks[b].stmts) {
        for (const cfg::VarUse& r : s.reads) {
          if (!r.required || r.name.empty()) continue;
          const auto it = index.find(r.name);
          if (it == index.end()) continue;          // undefined-var territory
          if (u_.globals.count(r.name) != 0) continue;  // proc global import
          if (cur[static_cast<std::size_t>(it->second)] != 0) continue;
          if (!reported.insert(r.name).second) continue;
          report_use_before_def(static_cast<int>(b), r, live);
        }
        apply(s, &cur);
      }
    }
  }

  void report_use_before_def(int target, const cfg::VarUse& r,
                             const std::vector<bool>& live) {
    // Shortest live path entry -> target through blocks that never assign
    // the variable: its branch decisions are the witness.
    const std::string& name = r.name;
    const auto blocked = [&](int b) {
      if (b == target) return false;  // the prefix before the read is clean
      for (const Stmt& s : blk(b).stmts) {
        for (const std::string& d : defs_of(s)) {
          if (d == name) return true;
        }
      }
      return false;
    };
    std::vector<int> parent(n_, -1);
    std::vector<bool> seen(n_, false);
    std::deque<int> q;
    if (env_.entry_defs.count(name) == 0 && !blocked(u_.entry)) {
      q.push_back(u_.entry);
      seen[static_cast<std::size_t>(u_.entry)] = true;
    }
    bool found = u_.entry == target && !q.empty();
    while (!q.empty() && !found) {
      const int b = q.front();
      q.pop_front();
      const auto& succ = blk(b).succ;
      for (std::size_t si = 0; si < succ.size(); ++si) {
        const int s = succ[si];
        if (edge_dead(b, static_cast<int>(si)) ||
            seen[static_cast<std::size_t>(s)] ||
            !live[static_cast<std::size_t>(s)] || blocked(s)) {
          continue;
        }
        seen[static_cast<std::size_t>(s)] = true;
        parent[static_cast<std::size_t>(s)] = b;
        if (s == target) {
          found = true;
          break;
        }
        q.push_back(s);
      }
    }

    std::string hint;
    if (found) {
      std::vector<int> path;
      for (int b = target; b != -1; b = parent[static_cast<std::size_t>(b)]) {
        path.push_back(b);
      }
      std::reverse(path.begin(), path.end());
      std::vector<std::string> parts;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Block& a = blk(path[i]);
        const int next = path[i + 1];
        if (a.succ.size() != 2) continue;
        const bool took_second = a.succ[1] == next && a.succ[0] != next;
        if (a.loop_header) {
          const int line = a.guard.line;
          parts.push_back(took_second
                              ? "the loop at line " + std::to_string(line) +
                                    " runs zero times"
                              : "the first pass through the loop at line " +
                                    std::to_string(line));
        } else if (a.has_guard) {
          parts.push_back("the branch at line " +
                          std::to_string(a.guard.line) + " is " +
                          (took_second ? "false" : "true"));
        } else if (!a.stmts.empty() && took_second) {
          const Stmt& last = a.stmts.back();
          if (last.head == "catch") {
            parts.push_back("the catch body at line " +
                            std::to_string(last.line) + " aborts early");
          } else if (last.head == "after") {
            parts.push_back("the after callback at line " +
                            std::to_string(last.line) + " never runs");
          }
        }
      }
      if (!parts.empty()) {
        hint = "unassigned when ";
        for (std::size_t i = 0; i < parts.size(); ++i) {
          if (i != 0) hint += " and ";
          hint += parts[i];
        }
      }
    }
    if (hint.empty()) {
      int first_def = 0;
      for (const cfg::VarDef& d : cfg::all_defs(u_)) {
        if (d.name == name && (first_def == 0 || d.line < first_def)) {
          first_def = d.line;
        }
      }
      hint = first_def != 0 ? "its first assignment is later, at line " +
                                  std::to_string(first_def)
                            : "it is only assigned outside this scope";
    }
    diag_(env_.persistent ? Severity::kWarning : Severity::kError,
          "use-before-def", r.line, r.col,
          "\"" + name + "\" can be read before it is set", hint);
  }

  const Unit& u_;
  const Env& env_;
  const cfg::DiagFn& diag_;
  const std::size_t n_;
  std::vector<std::vector<std::pair<int, int>>> preds_;  // (pred, succ idx)
  std::vector<ConstEnv> in_, out_;
  std::vector<std::vector<char>> dead_;  // per block, per succ edge
};

}  // namespace

void analyze(const cfg::Unit& u, const Env& env, const cfg::DiagFn& diag) {
  Analysis(u, env, diag).run();
}

}  // namespace pfi::lint::flow
