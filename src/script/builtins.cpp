// Core Tcl command set installed into every Interp.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "script/interp.hpp"

namespace pfi::script {

namespace {

using Args = std::vector<std::string>;

Result arity_error(const std::string& usage) {
  return Result::error("wrong # args: should be \"" + usage + "\"");
}

Result cmd_set(Interp& in, const Args& a) {
  if (a.size() == 2) {
    auto v = in.get_var(a[1]);
    if (!v) {
      return Result::error("can't read \"" + a[1] + "\": no such variable");
    }
    return Result::ok(*v);
  }
  if (a.size() == 3) {
    in.set_var(a[1], a[2]);
    return Result::ok(a[2]);
  }
  return arity_error("set varName ?newValue?");
}

Result cmd_unset(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("unset varName ?varName ...?");
  for (std::size_t i = 1; i < a.size(); ++i) in.unset_var(a[i]);
  return Result::ok();
}

Result cmd_incr(Interp& in, const Args& a) {
  if (a.size() != 2 && a.size() != 3) {
    return arity_error("incr varName ?increment?");
  }
  std::int64_t delta = 1;
  if (a.size() == 3) {
    ExprValue d = ExprValue::parse(a[2]);
    if (d.kind != ExprValue::Kind::kInt) {
      return Result::error("expected integer but got \"" + a[2] + "\"");
    }
    delta = d.i;
  }
  auto cur = in.get_var(a[1]);
  std::int64_t value = 0;
  if (cur) {
    ExprValue v = ExprValue::parse(*cur);
    if (v.kind != ExprValue::Kind::kInt) {
      return Result::error("expected integer but got \"" + *cur + "\"");
    }
    value = v.i;
  }
  value += delta;
  std::string out = std::to_string(value);
  in.set_var(a[1], out);
  return Result::ok(std::move(out));
}

Result cmd_append(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("append varName ?value ...?");
  std::string value = in.get_var(a[1]).value_or("");
  for (std::size_t i = 2; i < a.size(); ++i) value += a[i];
  in.set_var(a[1], value);
  return Result::ok(std::move(value));
}

Result cmd_expr(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("expr arg ?arg ...?");
  std::string joined;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (i > 1) joined += ' ';
    joined += a[i];
  }
  return in.eval_expr(joined);
}

Result cmd_puts(Interp& in, const Args& a) {
  bool newline = true;
  std::size_t i = 1;
  if (i < a.size() && a[i] == "-nonewline") {
    newline = false;
    ++i;
  }
  if (i + 1 != a.size()) return arity_error("puts ?-nonewline? string");
  in.append_output(a[i]);
  if (newline) in.append_output("\n");
  return Result::ok();
}

Result eval_condition(Interp& in, const std::string& cond, bool& out) {
  Result r = in.eval_expr(cond);
  if (!r.is_ok()) return r;
  out = ExprValue::parse(r.value).truthy();
  return Result::ok();
}

Result cmd_if(Interp& in, const Args& a) {
  // if cond ?then? body ?elseif cond ?then? body ...? ?else? ?body?
  std::size_t i = 1;
  while (true) {
    if (i >= a.size()) return arity_error("if cond body ...");
    const std::string& cond = a[i++];
    if (i < a.size() && a[i] == "then") ++i;
    if (i >= a.size()) return arity_error("if cond body ...");
    const std::string& body = a[i++];
    bool truthy = false;
    Result c = eval_condition(in, cond, truthy);
    if (!c.is_ok()) return c;
    if (truthy) return in.eval(body);
    if (i >= a.size()) return Result::ok();
    if (a[i] == "elseif") {
      ++i;
      continue;
    }
    if (a[i] == "else") ++i;
    if (i >= a.size()) return arity_error("if ... else body");
    return in.eval(a[i]);
  }
}

Result cmd_while(Interp& in, const Args& a) {
  if (a.size() != 3) return arity_error("while test command");
  std::uint64_t iters = 0;
  while (true) {
    in.note_loop_tick();
    if (++iters > in.max_loop_iterations()) {
      return Result::error("while loop exceeded iteration budget");
    }
    if (in.watchdog_tripped()) {
      return Result::error("watchdog: execution budget exceeded");
    }
    bool truthy = false;
    Result c = eval_condition(in, a[1], truthy);
    if (!c.is_ok()) return c;
    if (!truthy) break;
    Result r = in.eval(a[2]);
    if (r.code == Code::kBreak) break;
    if (r.code == Code::kContinue || r.code == Code::kOk) continue;
    return r;  // error or return
  }
  return Result::ok();
}

Result cmd_for(Interp& in, const Args& a) {
  if (a.size() != 5) return arity_error("for start test next command");
  Result init = in.eval(a[1]);
  if (!init.is_ok()) return init;
  std::uint64_t iters = 0;
  while (true) {
    in.note_loop_tick();
    if (++iters > in.max_loop_iterations()) {
      return Result::error("for loop exceeded iteration budget");
    }
    if (in.watchdog_tripped()) {
      return Result::error("watchdog: execution budget exceeded");
    }
    bool truthy = false;
    Result c = eval_condition(in, a[2], truthy);
    if (!c.is_ok()) return c;
    if (!truthy) break;
    Result r = in.eval(a[4]);
    if (r.code == Code::kBreak) break;
    if (r.code != Code::kContinue && r.code != Code::kOk) return r;
    Result next = in.eval(a[3]);
    if (!next.is_ok()) return next;
  }
  return Result::ok();
}

Result cmd_foreach(Interp& in, const Args& a) {
  if (a.size() != 4) return arity_error("foreach varName list command");
  const auto items = parse_list(a[2]);
  for (const auto& item : items) {
    in.note_loop_tick();
    in.set_var(a[1], item);
    Result r = in.eval(a[3]);
    if (r.code == Code::kBreak) break;
    if (r.code != Code::kContinue && r.code != Code::kOk) return r;
  }
  return Result::ok();
}

Result cmd_break(Interp&, const Args& a) {
  if (a.size() != 1) return arity_error("break");
  return {Code::kBreak, {}};
}

Result cmd_continue(Interp&, const Args& a) {
  if (a.size() != 1) return arity_error("continue");
  return {Code::kContinue, {}};
}

Result cmd_return(Interp&, const Args& a) {
  if (a.size() > 2) return arity_error("return ?value?");
  return {Code::kReturn, a.size() == 2 ? a[1] : std::string{}};
}

Result cmd_proc(Interp& in, const Args& a) {
  if (a.size() != 4) return arity_error("proc name args body");
  const std::string name = a[1];
  const std::vector<std::string> params = parse_list(a[2]);
  const std::string body = a[3];
  in.register_command(
      name, [name, params, body](Interp& interp, const Args& args) -> Result {
        interp.push_frame();
        struct FrameGuard {
          Interp& in;
          ~FrameGuard() { in.pop_frame(); }
        } guard{interp};
        std::size_t ai = 1;
        for (std::size_t pi = 0; pi < params.size(); ++pi) {
          const auto spec = parse_list(params[pi]);
          const std::string& pname = spec.empty() ? params[pi] : spec[0];
          if (pname == "args") {
            std::vector<std::string> rest(args.begin() + static_cast<long>(ai),
                                          args.end());
            interp.set_var("args", make_list(rest));
            ai = args.size();
            continue;
          }
          if (ai < args.size()) {
            interp.set_var(pname, args[ai++]);
          } else if (spec.size() >= 2) {
            interp.set_var(pname, spec[1]);  // default value
          } else {
            return Result::error("wrong # args: should be \"" + name + " " +
                                 make_list(params) + "\"");
          }
        }
        if (ai < args.size()) {
          return Result::error("wrong # args: should be \"" + name + " " +
                               make_list(params) + "\"");
        }
        Result r = interp.eval(body);
        if (r.code == Code::kReturn) return Result::ok(std::move(r.value));
        if (r.code == Code::kBreak || r.code == Code::kContinue) {
          return Result::error("invoked \"break\"/\"continue\" outside loop");
        }
        return r;
      });
  return Result::ok();
}

Result cmd_global(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("global varName ?varName ...?");
  for (std::size_t i = 1; i < a.size(); ++i) in.mark_global(a[i]);
  return Result::ok();
}

Result cmd_catch(Interp& in, const Args& a) {
  if (a.size() != 2 && a.size() != 3) {
    return arity_error("catch script ?resultVarName?");
  }
  Result r = in.eval(a[1]);
  if (a.size() == 3) in.set_var(a[2], r.value);
  return Result::ok(std::to_string(static_cast<int>(r.code)));
}

Result cmd_error(Interp&, const Args& a) {
  if (a.size() != 2) return arity_error("error message");
  return Result::error(a[1]);
}

Result cmd_eval(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("eval arg ?arg ...?");
  std::string joined;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (i > 1) joined += ' ';
    joined += a[i];
  }
  return in.eval(joined);
}

Result cmd_string_map(const Args& a, const std::string& s);

Result cmd_string(Interp&, const Args& a) {
  if (a.size() < 3) return arity_error("string option arg ?arg ...?");
  const std::string& opt = a[1];
  const std::string& s = a[2];
  auto to_index = [&](const std::string& t, std::int64_t& out) {
    if (t == "end") {
      out = static_cast<std::int64_t>(s.size()) - 1;
      return true;
    }
    if (t.rfind("end-", 0) == 0) {
      ExprValue v = ExprValue::parse(t.substr(4));
      if (v.kind != ExprValue::Kind::kInt) return false;
      out = static_cast<std::int64_t>(s.size()) - 1 - v.i;
      return true;
    }
    ExprValue v = ExprValue::parse(t);
    if (v.kind != ExprValue::Kind::kInt) return false;
    out = v.i;
    return true;
  };
  if (opt == "length") {
    return Result::ok(std::to_string(s.size()));
  }
  if (opt == "index") {
    if (a.size() != 4) return arity_error("string index string charIndex");
    std::int64_t i = 0;
    if (!to_index(a[3], i)) return Result::error("bad index \"" + a[3] + "\"");
    if (i < 0 || i >= static_cast<std::int64_t>(s.size())) {
      return Result::ok("");
    }
    return Result::ok(std::string(1, s[static_cast<std::size_t>(i)]));
  }
  if (opt == "range") {
    if (a.size() != 5) return arity_error("string range string first last");
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (!to_index(a[3], lo) || !to_index(a[4], hi)) {
      return Result::error("bad index");
    }
    lo = std::max<std::int64_t>(lo, 0);
    hi = std::min<std::int64_t>(hi, static_cast<std::int64_t>(s.size()) - 1);
    if (lo > hi) return Result::ok("");
    return Result::ok(s.substr(static_cast<std::size_t>(lo),
                               static_cast<std::size_t>(hi - lo + 1)));
  }
  if (opt == "tolower" || opt == "toupper") {
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [&](unsigned char c) {
      return opt == "tolower" ? std::tolower(c) : std::toupper(c);
    });
    return Result::ok(std::move(out));
  }
  if (opt == "trim") {
    const char* ws = " \t\n\r";
    const auto b = s.find_first_not_of(ws);
    if (b == std::string::npos) return Result::ok("");
    const auto e = s.find_last_not_of(ws);
    return Result::ok(s.substr(b, e - b + 1));
  }
  if (opt == "first") {
    if (a.size() != 4) return arity_error("string first needle haystack");
    const auto pos = a[3].find(s);
    return Result::ok(
        std::to_string(pos == std::string::npos
                           ? -1
                           : static_cast<std::int64_t>(pos)));
  }
  if (opt == "compare") {
    if (a.size() != 4) return arity_error("string compare string1 string2");
    const int c = s.compare(a[3]);
    return Result::ok(std::to_string(c < 0 ? -1 : (c > 0 ? 1 : 0)));
  }
  if (opt == "equal") {
    if (a.size() != 4) return arity_error("string equal string1 string2");
    return Result::ok(s == a[3] ? "1" : "0");
  }
  if (opt == "match") {
    if (a.size() != 4) return arity_error("string match pattern string");
    return Result::ok(glob_match(s, a[3]) ? "1" : "0");
  }
  if (opt == "map") {
    // string map {from to ...} string
    if (a.size() != 4) return arity_error("string map mapping string");
    return cmd_string_map(a, a[3]);
  }
  if (opt == "repeat") {
    if (a.size() != 4) return arity_error("string repeat string count");
    ExprValue n = ExprValue::parse(a[3]);
    if (n.kind != ExprValue::Kind::kInt || n.i < 0) {
      return Result::error("bad count \"" + a[3] + "\"");
    }
    std::string out;
    for (std::int64_t i = 0; i < n.i; ++i) out += s;
    return Result::ok(std::move(out));
  }
  return Result::error("bad string option \"" + opt + "\"");
}

Result cmd_list(Interp&, const Args& a) {
  return Result::ok(make_list({a.begin() + 1, a.end()}));
}

Result cmd_lindex(Interp&, const Args& a) {
  if (a.size() != 3) return arity_error("lindex list index");
  const auto items = parse_list(a[1]);
  std::int64_t i = 0;
  if (a[2] == "end") {
    i = static_cast<std::int64_t>(items.size()) - 1;
  } else {
    ExprValue v = ExprValue::parse(a[2]);
    if (v.kind != ExprValue::Kind::kInt) {
      return Result::error("bad index \"" + a[2] + "\"");
    }
    i = v.i;
  }
  if (i < 0 || i >= static_cast<std::int64_t>(items.size())) {
    return Result::ok("");
  }
  return Result::ok(items[static_cast<std::size_t>(i)]);
}

Result cmd_llength(Interp&, const Args& a) {
  if (a.size() != 2) return arity_error("llength list");
  return Result::ok(std::to_string(parse_list(a[1]).size()));
}

Result cmd_lappend(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("lappend varName ?value ...?");
  auto items = parse_list(in.get_var(a[1]).value_or(""));
  for (std::size_t i = 2; i < a.size(); ++i) items.push_back(a[i]);
  std::string out = make_list(items);
  in.set_var(a[1], out);
  return Result::ok(std::move(out));
}

Result cmd_lrange(Interp&, const Args& a) {
  if (a.size() != 4) return arity_error("lrange list first last");
  const auto items = parse_list(a[1]);
  auto to_index = [&](const std::string& t) -> std::int64_t {
    if (t == "end") return static_cast<std::int64_t>(items.size()) - 1;
    if (t.rfind("end-", 0) == 0) {
      return static_cast<std::int64_t>(items.size()) - 1 -
             ExprValue::parse(t.substr(4)).i;
    }
    return ExprValue::parse(t).i;
  };
  std::int64_t lo = std::max<std::int64_t>(to_index(a[2]), 0);
  std::int64_t hi = std::min<std::int64_t>(
      to_index(a[3]), static_cast<std::int64_t>(items.size()) - 1);
  std::vector<std::string> out;
  for (std::int64_t i = lo; i <= hi; ++i) {
    out.push_back(items[static_cast<std::size_t>(i)]);
  }
  return Result::ok(make_list(out));
}

Result cmd_lsearch(Interp&, const Args& a) {
  if (a.size() != 3) return arity_error("lsearch list pattern");
  const auto items = parse_list(a[1]);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (glob_match(a[2], items[i])) return Result::ok(std::to_string(i));
  }
  return Result::ok("-1");
}

Result cmd_switch(Interp& in, const Args& a) {
  // switch ?-exact|-glob? string {pattern body ?pattern body ...?}
  // or:     switch ?-exact|-glob? string pattern body ?pattern body ...?
  std::size_t i = 1;
  bool glob = false;
  if (i < a.size() && (a[i] == "-exact" || a[i] == "-glob")) {
    glob = a[i] == "-glob";
    ++i;
  }
  if (i >= a.size()) return arity_error("switch ?options? string pattern body ...");
  const std::string& subject = a[i++];
  std::vector<std::string> arms;
  if (a.size() - i == 1) {
    arms = parse_list(a[i]);  // braced pattern/body list
  } else {
    arms.assign(a.begin() + static_cast<long>(i), a.end());
  }
  if (arms.size() < 2 || arms.size() % 2 != 0) {
    return Result::error("extra switch pattern with no body");
  }
  for (std::size_t k = 0; k < arms.size(); k += 2) {
    const std::string& pattern = arms[k];
    const bool is_default = pattern == "default" && k + 2 == arms.size();
    const bool hit = is_default ||
                     (glob ? glob_match(pattern, subject)
                           : pattern == subject);
    if (!hit) continue;
    // "-" bodies fall through to the next arm's body.
    std::size_t body = k + 1;
    while (body < arms.size() && arms[body] == "-") body += 2;
    if (body >= arms.size()) {
      return Result::error("no body specified for pattern \"" + pattern +
                           "\"");
    }
    return in.eval(arms[body]);
  }
  return Result::ok();
}

Result cmd_string_map(const Args& a, const std::string& s) {
  // invoked from cmd_string: string map {from to ...} string
  const auto pairs = parse_list(a[2]);
  if (pairs.size() % 2 != 0) {
    return Result::error("char map list unbalanced");
  }
  std::string out;
  std::size_t i = 0;
  const std::string& text = s;
  while (i < text.size()) {
    bool replaced = false;
    for (std::size_t k = 0; k < pairs.size(); k += 2) {
      const std::string& from = pairs[k];
      if (!from.empty() && text.compare(i, from.size(), from) == 0) {
        out += pairs[k + 1];
        i += from.size();
        replaced = true;
        break;
      }
    }
    if (!replaced) out += text[i++];
  }
  return Result::ok(std::move(out));
}

Result cmd_lsort(Interp&, const Args& a) {
  if (a.size() != 2 && a.size() != 3) {
    return arity_error("lsort ?-integer? list");
  }
  const bool numeric = a.size() == 3;
  if (numeric && a[1] != "-integer") {
    return Result::error("bad lsort option \"" + a[1] + "\"");
  }
  auto items = parse_list(a.back());
  if (numeric) {
    std::sort(items.begin(), items.end(),
              [](const std::string& x, const std::string& y) {
                const ExprValue vx = ExprValue::parse(x);
                const ExprValue vy = ExprValue::parse(y);
                if (vx.is_numeric() && vy.is_numeric()) {
                  return vx.as_double() < vy.as_double();
                }
                return x < y;
              });
  } else {
    std::sort(items.begin(), items.end());
  }
  return Result::ok(make_list(items));
}

Result cmd_lreverse(Interp&, const Args& a) {
  if (a.size() != 2) return arity_error("lreverse list");
  auto items = parse_list(a[1]);
  std::reverse(items.begin(), items.end());
  return Result::ok(make_list(items));
}

Result cmd_split(Interp&, const Args& a) {
  if (a.size() != 2 && a.size() != 3) {
    return arity_error("split string ?splitChars?");
  }
  const std::string& s = a[1];
  const std::string seps = a.size() == 3 ? a[2] : " \t\n\r";
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (seps.find(c) != std::string::npos) {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return Result::ok(make_list(out));
}

Result cmd_join(Interp&, const Args& a) {
  if (a.size() != 2 && a.size() != 3) {
    return arity_error("join list ?joinString?");
  }
  const auto items = parse_list(a[1]);
  const std::string sep = a.size() == 3 ? a[2] : " ";
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return Result::ok(std::move(out));
}

Result cmd_concat(Interp&, const Args& a) {
  std::string out;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += a[i];
  }
  return Result::ok(std::move(out));
}

Result cmd_format(Interp&, const Args& a) {
  if (a.size() < 2) return arity_error("format formatString ?arg ...?");
  const std::string& fmt = a[1];
  std::string out;
  std::size_t arg = 2;
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out += fmt[i];
      continue;
    }
    ++i;
    if (i >= fmt.size()) break;
    if (fmt[i] == '%') {
      out += '%';
      continue;
    }
    // Collect a conversion spec: flags, width, precision, conversion char.
    std::string spec = "%";
    while (i < fmt.size() &&
           std::string("-+ 0#123456789.").find(fmt[i]) != std::string::npos) {
      spec += fmt[i++];
    }
    if (i >= fmt.size()) return Result::error("bad format string");
    const char conv = fmt[i];
    if (arg >= a.size()) {
      return Result::error("not enough arguments for all format specifiers");
    }
    char buf[256];
    const std::string& v = a[arg++];
    switch (conv) {
      case 'd': case 'i': case 'x': case 'X': case 'o': case 'u': {
        ExprValue ev = ExprValue::parse(v);
        const auto n = ev.kind == ExprValue::Kind::kDouble
                           ? static_cast<std::int64_t>(ev.d)
                           : ev.i;
        spec += "ll";
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<long long>(n));
        out += buf;
        break;
      }
      case 'f': case 'g': case 'e': case 'G': case 'E': {
        ExprValue ev = ExprValue::parse(v);
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(), ev.as_double());
        out += buf;
        break;
      }
      case 's': {
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(), v.c_str());
        out += buf;
        break;
      }
      case 'c': {
        ExprValue ev = ExprValue::parse(v);
        out += static_cast<char>(ev.i);
        break;
      }
      default:
        return Result::error(std::string("bad format conversion '%") + conv +
                             "'");
    }
  }
  return Result::ok(std::move(out));
}

Result cmd_array(Interp& in, const Args& a) {
  // array exists|names|size|get|set|unset arrayName ?...?
  if (a.size() < 3) return arity_error("array option arrayName ?arg?");
  const std::string& opt = a[1];
  const std::string prefix = a[2] + "(";
  auto elements = [&in, &prefix]() {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& name : in.var_names()) {
      if (name.rfind(prefix, 0) == 0 && name.back() == ')') {
        const std::string key =
            name.substr(prefix.size(), name.size() - prefix.size() - 1);
        out.emplace_back(key, in.get_var(name).value_or(""));
      }
    }
    return out;
  };
  if (opt == "exists") {
    return Result::ok(elements().empty() ? "0" : "1");
  }
  if (opt == "size") {
    return Result::ok(std::to_string(elements().size()));
  }
  if (opt == "names") {
    std::vector<std::string> names;
    for (auto& [k, v] : elements()) names.push_back(k);
    return Result::ok(make_list(names));
  }
  if (opt == "get") {
    std::vector<std::string> flat;
    for (auto& [k, v] : elements()) {
      flat.push_back(k);
      flat.push_back(v);
    }
    return Result::ok(make_list(flat));
  }
  if (opt == "set") {
    if (a.size() != 4) return arity_error("array set arrayName list");
    const auto items = parse_list(a[3]);
    if (items.size() % 2 != 0) {
      return Result::error("list must have an even number of elements");
    }
    for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
      in.set_var(a[2] + "(" + items[i] + ")", items[i + 1]);
    }
    return Result::ok();
  }
  if (opt == "unset") {
    for (auto& [k, v] : elements()) in.unset_var(a[2] + "(" + k + ")");
    return Result::ok();
  }
  return Result::error("bad array option \"" + opt + "\"");
}

Result cmd_info(Interp& in, const Args& a) {
  if (a.size() < 2) return arity_error("info option ?arg ...?");
  if (a[1] == "exists") {
    if (a.size() != 3) return arity_error("info exists varName");
    return Result::ok(in.get_var(a[2]) ? "1" : "0");
  }
  if (a[1] == "commands") {
    auto names = in.command_names();
    if (a.size() == 3) {
      std::erase_if(names, [&](const std::string& n) {
        return !glob_match(a[2], n);
      });
    }
    return Result::ok(make_list(names));
  }
  return Result::error("bad info option \"" + a[1] + "\"");
}

}  // namespace

// ---------------------------------------------------------------------------
// List and glob utilities (declared in interp.hpp)
// ---------------------------------------------------------------------------

std::string make_list(const std::vector<std::string>& elems) {
  std::string out;
  for (const auto& e : elems) {
    if (!out.empty()) out += ' ';
    const bool needs_brace =
        e.empty() ||
        e.find_first_of(" \t\n{}\"") != std::string::npos;
    if (needs_brace) {
      out += '{';
      out += e;
      out += '}';
    } else {
      out += e;
    }
  }
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star_p = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '[') {
      // character class, possibly with ranges
      std::size_t q = p + 1;
      bool matched = false;
      bool negate = false;
      if (q < pattern.size() && pattern[q] == '^') {
        negate = true;
        ++q;
      }
      while (q < pattern.size() && pattern[q] != ']') {
        if (q + 2 < pattern.size() && pattern[q + 1] == '-' &&
            pattern[q + 2] != ']') {
          if (pattern[q] <= text[t] && text[t] <= pattern[q + 2]) {
            matched = true;
          }
          q += 3;
        } else {
          if (pattern[q] == text[t]) matched = true;
          ++q;
        }
      }
      if (q >= pattern.size()) return false;  // unterminated class
      if (matched == negate) {
        // fall through to star backtrack below
        if (star_p == std::string_view::npos) return false;
        p = star_p + 1;
        t = ++star_t;
        continue;
      }
      p = q + 1;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

void Interp::install_builtins() {
  register_command("set", cmd_set);
  register_command("unset", cmd_unset);
  register_command("incr", cmd_incr);
  register_command("append", cmd_append);
  register_command("expr", cmd_expr);
  register_command("puts", cmd_puts);
  register_command("if", cmd_if);
  register_command("while", cmd_while);
  register_command("for", cmd_for);
  register_command("foreach", cmd_foreach);
  register_command("switch", cmd_switch);
  register_command("break", cmd_break);
  register_command("continue", cmd_continue);
  register_command("return", cmd_return);
  register_command("proc", cmd_proc);
  register_command("global", cmd_global);
  register_command("catch", cmd_catch);
  register_command("error", cmd_error);
  register_command("eval", cmd_eval);
  register_command("string", cmd_string);
  register_command("list", cmd_list);
  register_command("lindex", cmd_lindex);
  register_command("llength", cmd_llength);
  register_command("lappend", cmd_lappend);
  register_command("lrange", cmd_lrange);
  register_command("lsearch", cmd_lsearch);
  register_command("lsort", cmd_lsort);
  register_command("lreverse", cmd_lreverse);
  register_command("split", cmd_split);
  register_command("join", cmd_join);
  register_command("concat", cmd_concat);
  register_command("format", cmd_format);
  register_command("array", cmd_array);
  register_command("info", cmd_info);
}

}  // namespace pfi::script
