#include "lint/cfg.hpp"

#include <algorithm>
#include <cctype>

#include "script/interp.hpp"

namespace pfi::lint::cfg {

namespace {

namespace sp = script::parse;

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// v1's script_escapes over-approximation: does this text, parsed as a
/// script (recursing into every brace), contain a command that can leave a
/// loop? Data braces can only create a false "can escape", never a false
/// infinite-loop alarm.
bool text_escapes(const std::string& text) {
  const sp::Script script = sp::parse_script(text);
  if (!script.ok()) return true;
  for (const sp::Command& cmd : script.commands) {
    if (!cmd.words.empty() && cmd.words[0].literal()) {
      const std::string name = sp::literal_value(cmd.words[0]);
      if (name == "break" || name == "return" || name == "error" ||
          name == "xCrashProcess") {
        return true;
      }
    }
    for (const sp::Word& w : cmd.words) {
      if (w.kind == sp::Word::Kind::kBraced && text_escapes(w.text)) {
        return true;
      }
      for (const sp::Script& nested : w.nested) {
        for (const sp::Command& c : nested.commands) {
          for (const sp::Word& nw : c.words) {
            if (nw.kind == sp::Word::Kind::kBraced && text_escapes(nw.text)) {
              return true;
            }
          }
          if (!c.words.empty() && c.words[0].literal()) {
            const std::string name = sp::literal_value(c.words[0]);
            if (name == "break" || name == "return" || name == "error" ||
                name == "xCrashProcess") {
              return true;
            }
          }
        }
      }
    }
  }
  return false;
}

}  // namespace

std::string var_name_base(const std::string& raw) {
  std::string base;
  for (const char c : raw) {
    if (c == '(') break;
    if (!is_name_char(c)) return {};
    base += c;
  }
  return base;
}

std::string normalize_var(const std::string& name) {
  const auto paren = name.find('(');
  return paren == std::string::npos ? name : name.substr(0, paren);
}

namespace {

/// Lowers one parsed body into a Unit. One instance per Unit; nested
/// bodies (loop/if/catch arms) recurse through lower_script.
class Builder {
 public:
  Builder(const DiagFn& diag, std::vector<ProcDef>* procs)
      : diag_(diag), procs_(procs) {}

  Unit take(const std::string& text, int first_line, int first_col,
            const std::string& name) {
    u_.name = name;
    u_.blocks.emplace_back();  // 0: entry
    u_.blocks.emplace_back();  // 1: virtual exit
    cur_ = u_.entry;
    sealed_ = false;
    const sp::Script script = sp::parse_script(text, first_line, first_col);
    if (!script.ok()) {
      diag_(Severity::kError, "parse-error", script.error_line,
            script.error_col, script.error, {});
      return std::move(u_);
    }
    lower_script(script);
    to(u_.exit);
    return std::move(u_);
  }

 private:
  // -- graph plumbing -------------------------------------------------------

  int nb() {
    u_.blocks.emplace_back();
    return static_cast<int>(u_.blocks.size()) - 1;
  }

  Block& blk(int i) { return u_.blocks[static_cast<std::size_t>(i)]; }

  /// Fallthrough edge from the current block, unless it already terminated.
  void to(int target) {
    if (!sealed_) blk(cur_).succ.push_back(target);
  }

  void seal() { sealed_ = true; }

  void enter(int block) {
    cur_ = block;
    sealed_ = false;
  }

  Stmt& append(Stmt s) {
    blk(cur_).stmts.push_back(std::move(s));
    return blk(cur_).stmts.back();
  }

  // -- lowering -------------------------------------------------------------

  void lower_script(const sp::Script& script) {
    for (const sp::Command& cmd : script.commands) {
      if (cmd.words.empty()) continue;
      if (sealed_) {
        // Code after a terminator: give it a fresh, predecessor-less block
        // so the reachability pass reports it.
        enter(nb());
      }
      lower_command(cmd);
    }
  }

  void lower_command(const sp::Command& cmd) {
    // Generic effects first: every $read in every bare/quoted word, every
    // [nested] script (which executes before the outer command). Braced
    // words carry neither — the command-specific lowering decides which
    // braces are code.
    std::vector<VarUse> pending;
    bool esc = false;
    for (const sp::Word& w : cmd.words) {
      for (const sp::VarRef& ref : sp::reads(w)) {
        pending.push_back(
            {normalize_var(ref.name), ref.line, ref.col, /*required=*/true});
      }
      for (const sp::Script& nested : w.nested) {
        lower_script(nested);
      }
      if (w.kind == sp::Word::Kind::kBraced &&
          (w.text.find("break") != std::string::npos ||
           w.text.find("return") != std::string::npos ||
           w.text.find("error") != std::string::npos ||
           w.text.find("xCrashProcess") != std::string::npos) &&
          text_escapes(w.text)) {
        esc = true;
      }
    }

    const sp::Word& head = cmd.words[0];
    if (!head.literal()) {
      u_.dynamic = true;  // computed command name: stop judging
      Stmt s;
      s.line = cmd.line;
      s.col = cmd.col;
      s.reads = std::move(pending);
      s.maybe_escape = esc;
      append(std::move(s));
      return;
    }
    const std::string name = sp::literal_value(head);
    const int nargs = static_cast<int>(cmd.words.size()) - 1;
    u_.uses.push_back({name, nargs, cmd.line, cmd.col});

    Stmt s;
    s.head = name;
    s.line = cmd.line;
    s.col = cmd.col;
    s.reads = std::move(pending);
    s.maybe_escape = esc;

    auto arg = [&cmd](int i) -> const sp::Word& {
      return cmd.words[static_cast<std::size_t>(i)];
    };

    if (name == "set") {
      if (nargs >= 1) {
        const std::string base = var_name_base(arg(1).text);
        if (!base.empty()) {
          if (nargs >= 2) {
            s.defs.push_back({base, arg(1).line, arg(1).col});
            // Constant payload for scalars only: `set count($i) 0` defines
            // the array, not a scalar named count.
            if (arg(2).literal() && arg(1).text == base) {
              s.cp = CpKind::kSetConst;
              s.cp_var = base;
              s.cp_value = sp::literal_value(arg(2));
            }
          } else {
            s.reads.push_back({base, arg(1).line, arg(1).col, true});
          }
        } else if (nargs >= 2) {
          u_.dynamic = true;  // set $name v / set [..] v
        }
      }
      append(std::move(s));
      return;
    }
    if (name == "incr" || name == "append" || name == "lappend") {
      if (nargs >= 1) {
        const std::string base = var_name_base(arg(1).text);
        if (!base.empty()) {
          s.defs.push_back({base, arg(1).line, arg(1).col});
          if (name == "incr" && arg(1).text == base) {
            if (nargs == 1) {
              s.cp = CpKind::kIncr;
              s.cp_var = base;
              s.cp_value = "1";
            } else if (arg(2).literal()) {
              s.cp = CpKind::kIncr;
              s.cp_var = base;
              s.cp_value = sp::literal_value(arg(2));
            }
          }
        } else {
          u_.dynamic = true;
        }
      }
      append(std::move(s));
      return;
    }
    if (name == "unset") {
      for (int i = 1; i <= nargs; ++i) {
        const std::string base = var_name_base(arg(i).text);
        if (!base.empty()) {
          s.reads.push_back({base, arg(i).line, arg(i).col, false});
          s.kills.push_back(base);
        }
      }
      append(std::move(s));
      return;
    }
    if (name == "global") {
      for (int i = 1; i <= nargs; ++i) {
        const std::string base = var_name_base(arg(i).text);
        if (!base.empty()) u_.globals.insert(base);
      }
      append(std::move(s));
      return;
    }
    if (name == "info") {
      if (nargs == 2 && sp::literal_value(arg(1)) == "exists") {
        const std::string base = var_name_base(arg(2).text);
        if (!base.empty()) {
          s.reads.push_back({base, arg(2).line, arg(2).col, false});
          u_.presence_checked = true;
        }
      }
      append(std::move(s));
      return;
    }
    if (name == "expr") {
      for (int i = 1; i <= nargs; ++i) {
        scan_expr_word(arg(i), &s);
      }
      append(std::move(s));
      return;
    }
    if (name == "foreach" && nargs == 3) {
      append(std::move(s));  // the list word's reads
      lower_foreach(arg(1), arg(3), cmd.line, cmd.col);
      return;
    }
    if (name == "while" && nargs == 2) {
      append(std::move(s));  // bare-guard reads, if any
      lower_while(arg(1), arg(2));
      return;
    }
    if (name == "if") {
      append(std::move(s));
      lower_if(cmd);
      return;
    }
    if (name == "for" && nargs == 4) {
      append(std::move(s));
      lower_for(arg(1), arg(2), arg(3), arg(4));
      return;
    }
    if (name == "catch") {
      append(std::move(s));
      lower_catch(cmd, nargs);
      return;
    }
    if (name == "switch") {
      append(std::move(s));
      lower_switch(cmd);
      return;
    }
    if (name == "after") {
      append(std::move(s));
      if (nargs >= 2 && arg(2).kind == sp::Word::Kind::kBraced) {
        lower_deferred_body(arg(2));
      }
      return;
    }
    if (name == "proc") {
      append(std::move(s));
      if (nargs == 3) collect_proc(cmd);
      return;
    }
    if (name == "eval") {
      u_.dynamic = true;  // arbitrary computed script
      append(std::move(s));
      return;
    }
    if (name == "break" || name == "continue") {
      append(std::move(s));
      if (!catch_joins_.empty()) {
        to(catch_joins_.back());
      } else if (!loops_.empty()) {
        to(name == "break" ? loops_.back().exit : loops_.back().header);
      }
      seal();
      return;
    }
    if (name == "return" || name == "error" || name == "xCrashProcess") {
      append(std::move(s));
      to(catch_joins_.empty() ? u_.exit : catch_joins_.back());
      seal();
      return;
    }
    append(std::move(s));
  }

  /// A braced word holding expression text: record its reads into `into`
  /// and lower its command substitutions. (Bare/quoted expr words were
  /// already scanned generically.)
  void scan_expr_word(const sp::Word& w, Stmt* into) {
    if (w.kind != sp::Word::Kind::kBraced) return;
    for (const sp::Operand& op : sp::scan_expr(w.text, w.line, w.col + 1)) {
      for (const sp::VarRef& ref : sp::reads(op.word)) {
        into->reads.push_back(
            {normalize_var(ref.name), ref.line, ref.col, true});
      }
      for (const sp::Script& nested : op.word.nested) {
        lower_script(nested);
      }
    }
  }

  /// Evaluate a guard in the current block: a synthetic stmt carrying its
  /// reads, plus the Guard descriptor on the block.
  void set_guard(const sp::Word& w) {
    Stmt gs;
    gs.head = "<guard>";
    gs.line = w.line;
    gs.col = w.col;
    scan_expr_word(w, &gs);

    Guard g;
    g.line = w.line;
    g.col = w.col;
    g.text = sp::literal_value(w);
    // Only a braced guard can be literal and still hold a [...].
    g.has_cmd = w.kind == sp::Word::Kind::kBraced &&
                w.text.find('[') != std::string::npos;
    g.literal_word = w.literal();
    g.foldable = g.literal_word && !g.has_cmd;
    for (const VarUse& r : gs.reads) g.vars.push_back(r.name);
    if (w.kind != sp::Word::Kind::kBraced) {
      for (const sp::VarRef& ref : sp::reads(w)) {
        g.vars.push_back(normalize_var(ref.name));
      }
    }
    append(std::move(gs));
    blk(cur_).has_guard = true;
    blk(cur_).guard = std::move(g);
    seal();  // successors are the branch targets, set by the caller
  }

  /// A braced (or literal) word used as an inline script body.
  void lower_body(const sp::Word& w) {
    if (!w.literal()) return;  // computed body: nothing static to say
    const std::string body =
        w.kind == sp::Word::Kind::kBraced ? w.text : sp::literal_value(w);
    const sp::Script script = sp::parse_script(body, w.line, w.col + 1);
    if (!script.ok()) {
      diag_(Severity::kError, "parse-error", script.error_line,
            script.error_col, script.error + " (in script body)", {});
      return;
    }
    lower_script(script);
  }

  void lower_while(const sp::Word& cond, const sp::Word& body) {
    const int header = nb();
    to(header);
    enter(header);
    set_guard(cond);
    const int exitb = nb();
    const int bodyb = nb();
    blk(header).succ = {bodyb, exitb};
    blk(header).loop_header = true;
    blk(header).loop_kind = "while";
    blk(header).body_begin = bodyb;

    loops_.push_back({header, exitb});
    enter(bodyb);
    lower_body(body);
    to(header);  // back edge
    seal();
    loops_.pop_back();
    blk(header).body_end = static_cast<int>(u_.blocks.size());
    enter(exitb);
  }

  void lower_for(const sp::Word& init, const sp::Word& cond,
                 const sp::Word& next, const sp::Word& body) {
    lower_body(init);
    const int header = nb();
    to(header);
    enter(header);
    set_guard(cond);
    const int exitb = nb();
    const int bodyb = nb();
    blk(header).succ = {bodyb, exitb};
    blk(header).loop_header = true;
    blk(header).loop_kind = "for";
    blk(header).body_begin = bodyb;

    loops_.push_back({header, exitb});
    enter(bodyb);
    lower_body(body);
    // `continue` in a for loop still runs the next-script; our model sends
    // it straight to the header — the next-script's defs are inside the
    // body range either way, which is what the invariant pass needs.
    lower_body(next);
    to(header);
    seal();
    loops_.pop_back();
    blk(header).body_end = static_cast<int>(u_.blocks.size());
    enter(exitb);
  }

  void lower_foreach(const sp::Word& var, const sp::Word& body, int line,
                     int col) {
    const int header = nb();
    to(header);
    enter(header);
    blk(header).has_guard = false;
    blk(header).loop_header = true;
    blk(header).loop_kind = "foreach";
    blk(header).implicit_guard = true;
    blk(header).guard.line = line;  // anchor for zero-iteration hints
    blk(header).guard.col = col;
    seal();
    const int exitb = nb();
    const int bodyb = nb();
    blk(header).succ = {bodyb, exitb};
    blk(header).body_begin = bodyb;

    loops_.push_back({header, exitb});
    enter(bodyb);
    const std::string base = var_name_base(var.text);
    if (!base.empty()) {
      Stmt def;
      def.head = "<foreach-var>";
      def.line = var.line;
      def.col = var.col;
      def.defs.push_back({base, var.line, var.col});
      append(std::move(def));
    }
    lower_body(body);
    to(header);
    seal();
    loops_.pop_back();
    blk(header).body_end = static_cast<int>(u_.blocks.size());
    enter(exitb);
  }

  void lower_if(const sp::Command& cmd) {
    std::vector<int> ends;  // fallthrough blocks joining after the chain
    std::size_t i = 1;
    const std::size_t n = cmd.words.size();
    bool saw_else = false;
    while (i < n) {
      set_guard(cmd.words[i]);
      const int pre = cur_;
      ++i;
      if (i < n && cmd.words[i].literal() &&
          sp::literal_value(cmd.words[i]) == "then") {
        ++i;
      }
      const int falseb = nb();
      const int trueb = nb();
      blk(pre).succ = {trueb, falseb};
      enter(trueb);
      if (i < n) {
        lower_body(cmd.words[i]);
        ++i;
      }
      if (!sealed_) ends.push_back(cur_);
      enter(falseb);
      if (i >= n) break;
      if (!cmd.words[i].literal()) break;
      const std::string kw = sp::literal_value(cmd.words[i]);
      if (kw == "elseif") {
        ++i;
        continue;
      }
      if (kw == "else") {
        ++i;
        if (i < n) {
          lower_body(cmd.words[i]);
          saw_else = true;
          if (!sealed_) ends.push_back(cur_);
        }
      }
      break;
    }
    if (saw_else) {
      const int join = nb();
      seal();  // the else body's fallthrough is already in `ends`
      for (const int e : ends) u_.blocks[static_cast<std::size_t>(e)]
                                   .succ.push_back(join);
      enter(join);
      return;
    }
    // No else: the final false block is the join.
    const int join = cur_;
    for (const int e : ends) {
      u_.blocks[static_cast<std::size_t>(e)].succ.push_back(join);
    }
  }

  void lower_catch(const sp::Command& cmd, int nargs) {
    const int join = nb();
    const int bodyb = nb();
    // "body runs to completion" vs "aborted by an error mid-way": defs in
    // the body are maybe-assigned either way.
    blk(cur_).succ = {bodyb, join};
    seal();
    catch_joins_.push_back(join);
    enter(bodyb);
    if (nargs >= 1) lower_body(cmd.words[1]);
    to(join);
    seal();
    catch_joins_.pop_back();
    enter(join);
    if (nargs >= 2) {
      const std::string base = var_name_base(cmd.words[2].text);
      if (!base.empty()) {
        Stmt def;
        def.head = "<catch-var>";
        def.line = cmd.words[2].line;
        def.col = cmd.words[2].col;
        def.defs.push_back({base, cmd.words[2].line, cmd.words[2].col});
        append(std::move(def));
      }
    }
  }

  /// `after ms {body}`: the body runs later (or never); model it like a
  /// maybe-taken branch so its defs are never definite.
  void lower_deferred_body(const sp::Word& body) {
    const int join = nb();
    const int bodyb = nb();
    blk(cur_).succ = {bodyb, join};
    seal();
    catch_joins_.push_back(join);  // terminators end the callback, not us
    enter(bodyb);
    lower_body(body);
    to(join);
    seal();
    catch_joins_.pop_back();
    enter(join);
  }

  void lower_switch(const sp::Command& cmd) {
    std::size_t i = 1;
    const std::size_t n = cmd.words.size();
    while (i < n && cmd.words[i].literal()) {
      const std::string v = sp::literal_value(cmd.words[i]);
      if (v == "-exact" || v == "-glob") {
        ++i;
      } else {
        break;
      }
    }
    ++i;  // the subject (generic effects already recorded)
    const int pre = cur_;
    std::vector<int> ends;
    seal();

    auto lower_arm = [&](const std::string& body, int line, int col) {
      const int a = nb();
      u_.blocks[static_cast<std::size_t>(pre)].succ.push_back(a);
      enter(a);
      const sp::Script script = sp::parse_script(body, line, col);
      if (script.ok()) lower_script(script);
      if (!sealed_) ends.push_back(cur_);
    };

    if (i < n) {
      if (n - i == 1 && cmd.words[i].kind == sp::Word::Kind::kBraced) {
        // One braced {pattern body ...} list. Element positions are lost
        // to parse_list, so bodies are anchored at the list word itself.
        const auto elems = script::parse_list(cmd.words[i].text);
        for (std::size_t e = 1; e < elems.size(); e += 2) {
          if (elems[e] == "-") continue;
          lower_arm(elems[e], cmd.words[i].line, cmd.words[i].col);
        }
      } else {
        for (std::size_t e = i + 1; e < n; e += 2) {
          if (cmd.words[e].literal() &&
              sp::literal_value(cmd.words[e]) == "-") {
            continue;
          }
          if (!cmd.words[e].literal()) continue;
          const sp::Word& w = cmd.words[e];
          lower_arm(w.kind == sp::Word::Kind::kBraced ? w.text
                                                      : sp::literal_value(w),
                    w.line, w.col + 1);
        }
      }
    }
    // No-match (or no default): fall through past every arm.
    const int join = nb();
    u_.blocks[static_cast<std::size_t>(pre)].succ.push_back(join);
    for (const int e : ends) {
      u_.blocks[static_cast<std::size_t>(e)].succ.push_back(join);
    }
    enter(join);
  }

  void collect_proc(const sp::Command& cmd) {
    const sp::Word& name_w = cmd.words[1];
    const sp::Word& params_w = cmd.words[2];
    const sp::Word& body_w = cmd.words[3];
    if (!name_w.literal() || !params_w.literal()) return;

    ProcDef def;
    def.name = sp::literal_value(name_w);
    def.line = cmd.line;
    def.col = cmd.col;
    const auto params = script::parse_list(sp::literal_value(params_w));
    int required = 0;
    bool varargs = false;
    for (std::size_t p = 0; p < params.size(); ++p) {
      const auto parts = script::parse_list(params[p]);
      const std::string pname = parts.empty() ? params[p] : parts[0];
      if (pname == "args" && p + 1 == params.size()) {
        varargs = true;
      } else if (parts.size() < 2) {
        ++required;
      }
      def.params.push_back({pname, params_w.line, params_w.col});
    }
    def.min_args = required;
    def.max_args = varargs ? -1 : static_cast<int>(params.size());
    if (body_w.kind == sp::Word::Kind::kBraced) {
      def.body = body_w.text;
      def.body_line = body_w.line;
      def.body_col = body_w.col + 1;
      def.body_braced = true;
    }
    if (procs_ != nullptr) procs_->push_back(std::move(def));
  }

  struct LoopCtx {
    int header;
    int exit;
  };

  Unit u_;
  const DiagFn& diag_;
  std::vector<ProcDef>* procs_;
  int cur_ = 0;
  bool sealed_ = false;
  std::vector<LoopCtx> loops_;
  std::vector<int> catch_joins_;
};

}  // namespace

Unit build_unit(const std::string& text, int first_line, int first_col,
                const std::string& name, const DiagFn& diag,
                std::vector<ProcDef>* procs) {
  Builder b(diag, procs);
  return b.take(text, first_line, first_col, name);
}

std::vector<VarUse> all_reads(const Unit& u) {
  std::vector<VarUse> out;
  for (const Block& b : u.blocks) {
    for (const Stmt& s : b.stmts) {
      out.insert(out.end(), s.reads.begin(), s.reads.end());
    }
  }
  return out;
}

std::vector<VarDef> all_defs(const Unit& u) {
  std::vector<VarDef> out;
  for (const Block& b : u.blocks) {
    for (const Stmt& s : b.stmts) {
      out.insert(out.end(), s.defs.begin(), s.defs.end());
    }
  }
  return out;
}

std::vector<bool> reachable(const Unit& u) {
  std::vector<bool> seen(u.blocks.size(), false);
  std::vector<int> work{u.entry};
  seen[static_cast<std::size_t>(u.entry)] = true;
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    for (const int s : u.blocks[static_cast<std::size_t>(b)].succ) {
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = true;
        work.push_back(s);
      }
    }
  }
  return seen;
}

}  // namespace pfi::lint::cfg
