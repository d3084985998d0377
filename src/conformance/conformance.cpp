#include "conformance/conformance.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/kv.hpp"

namespace pfi::conformance {

using core::scriptgen::FaultKind;

const char* to_string(StepKind k) {
  switch (k) {
    case StepKind::kInject: return "inject";
    case StepKind::kExpect: return "expect";
    case StepKind::kExpectNo: return "expect-no";
  }
  return "?";
}

const std::vector<std::string>& known_scenarios() {
  static const std::vector<std::string> s = {"bulk", "echo", "keepalive",
                                             "zero-window"};
  return s;
}

sim::TimePoint Step::window_end(sim::Duration end_of_run) const {
  if (window < 0) return end_of_run;
  return std::min<sim::TimePoint>(at + window, end_of_run);
}

namespace {

struct Token {
  std::string text;
  int col = 0;  // 1-based
};

/// Split one line into whitespace-separated tokens with column anchors;
/// a `#` starts a comment.
std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    if (i >= line.size() || line[i] == '#') break;
    const std::size_t start = i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) == 0 &&
           line[i] != '#') {
      ++i;
    }
    out.push_back({line.substr(start, i - start), static_cast<int>(start + 1)});
  }
  return out;
}

/// "1.5s" / "200ms" / "30" (seconds) / "2m" / "3h" -> microseconds.
/// Integer-exact: the fraction is scaled digit by digit, no floating point.
std::optional<sim::Duration> parse_time(const std::string& tok) {
  std::size_t i = 0;
  while (i < tok.size() &&
         std::isdigit(static_cast<unsigned char>(tok[i])) != 0) {
    ++i;
  }
  if (i == 0) return std::nullopt;
  const std::size_t whole_end = i;
  std::string frac;
  if (i < tok.size() && tok[i] == '.') {
    const std::size_t dot = i++;
    while (i < tok.size() &&
           std::isdigit(static_cast<unsigned char>(tok[i])) != 0) {
      ++i;
    }
    frac = tok.substr(dot + 1, i - dot - 1);
    if (frac.empty()) return std::nullopt;
  }
  const std::string unit = tok.substr(i);
  sim::Duration mult = 0;
  if (unit.empty() || unit == "s") {
    mult = sim::kSecond;
  } else if (unit == "ms") {
    mult = sim::kMillisecond;
  } else if (unit == "us") {
    mult = sim::kMicrosecond;
  } else if (unit == "m") {
    mult = sim::kMinute;
  } else if (unit == "h") {
    mult = sim::kHour;
  } else {
    return std::nullopt;
  }
  sim::Duration value = 0;
  if (!campaign::kv::to_scaled(std::string_view(tok).substr(0, whole_end),
                               mult, &value)) {
    return std::nullopt;  // overflows the int64 microsecond clock
  }
  sim::Duration scale = mult, part = 0;
  for (char c : frac) {
    scale /= 10;
    part += (c - '0') * scale;
  }
  if (__builtin_add_overflow(value, part, &value)) return std::nullopt;
  return value;
}

std::optional<FaultKind> parse_fault(const std::string& tok) {
  if (tok == "drop") return FaultKind::kDrop;
  if (tok == "delay") return FaultKind::kDelay;
  if (tok == "duplicate") return FaultKind::kDuplicate;
  if (tok == "corrupt") return FaultKind::kCorrupt;
  if (tok == "reorder") return FaultKind::kReorder;
  return std::nullopt;
}

std::string fmt_s(sim::TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", sim::to_seconds(t));
  return buf;
}

class Parser {
 public:
  Parser(const std::string& file, std::vector<lint::Diagnostic>* diags)
      : file_(file), diags_(diags) {}

  std::optional<Program> run(const std::string& text) {
    Program prog;
    prog.source_file = file_;
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      const std::vector<Token> toks = tokenize(line);
      if (toks.empty()) continue;
      directive(prog, toks, lineno);
    }
    if (prog.duration <= 0) {
      error(lineno, 1, "parse-error", "duration must be positive",
            "add e.g. `duration 60s` to the header");
    }
    if (errors_ > 0) return std::nullopt;
    return prog;
  }

 private:
  void emit(lint::Severity sev, int line, int col, const std::string& rule,
            const std::string& msg, const std::string& hint) {
    if (sev == lint::Severity::kError) ++errors_;
    diags_->push_back({sev, rule, file_, line, col, msg, hint});
  }
  void error(int line, int col, const std::string& rule,
             const std::string& msg, const std::string& hint = {}) {
    emit(lint::Severity::kError, line, col, rule, msg, hint);
  }

  void directive(Program& prog, const std::vector<Token>& toks, int line) {
    const std::string& head = toks[0].text;
    const auto arg = [&](std::size_t i) -> const Token* {
      return i < toks.size() ? &toks[i] : nullptr;
    };
    if (head == "at") {
      step(prog, toks, line);
      return;
    }
    if (head == "name" || head == "protocol" || head == "scenario") {
      const Token* v = arg(1);
      if (v == nullptr || toks.size() != 2) {
        error(line, toks[0].col, "parse-error",
              "`" + head + "` takes exactly one word");
        return;
      }
      if (head == "name") {
        prog.name = v->text;
      } else if (head == "protocol") {
        prog.protocol = v->text;
      } else {
        const auto& known = known_scenarios();
        if (std::find(known.begin(), known.end(), v->text) == known.end()) {
          std::string list;
          for (const auto& s : known) list += (list.empty() ? "" : ", ") + s;
          error(line, v->col, "bad-scenario",
                "unknown scenario \"" + v->text + "\"",
                "one of: " + list);
          return;
        }
        prog.scenario = v->text;
      }
      return;
    }
    if (head == "duration" || head == "seed") {
      const Token* v = arg(1);
      if (v == nullptr || toks.size() != 2) {
        error(line, toks[0].col, "parse-error",
              "`" + head + "` takes exactly one value");
        return;
      }
      if (head == "duration") {
        const auto d = parse_time(v->text);
        if (!d || *d <= 0) {
          error(line, v->col, "parse-error",
                "bad duration \"" + v->text + "\"",
                "a positive time like 60s, 1500ms or 2h");
          return;
        }
        prog.duration = *d;
      } else {
        if (!campaign::kv::to_int(v->text, &prog.seed)) {
          error(line, v->col, "parse-error", "bad seed \"" + v->text + "\"");
          return;
        }
      }
      return;
    }
    error(line, toks[0].col, "unknown-directive",
          "unknown directive \"" + head + "\"",
          "directives: name, protocol, scenario, duration, seed, at");
  }

  void step(Program& prog, const std::vector<Token>& toks, int line) {
    if (toks.size() < 3) {
      error(line, toks[0].col, "parse-error",
            "usage: at <time> inject|expect|expect-no ...");
      return;
    }
    const auto at = parse_time(toks[1].text);
    if (!at) {
      error(line, toks[1].col, "parse-error",
            "bad timestamp \"" + toks[1].text + "\"",
            "a time like 0, 2.5s, 200ms or 2h");
      return;
    }
    Step s;
    s.at = *at;
    s.line = line;
    const std::string& verb = toks[2].text;
    std::size_t i = 3;
    if (verb == "inject") {
      s.kind = StepKind::kInject;
      if (toks.size() < 5) {
        error(line, toks[2].col, "parse-error",
              "usage: at <time> inject <fault> <msg-pattern> [options]");
        return;
      }
      const auto fault = parse_fault(toks[3].text);
      if (!fault) {
        error(line, toks[3].col, "parse-error",
              "unknown fault \"" + toks[3].text + "\"",
              "one of: drop, delay, duplicate, corrupt, reorder");
        return;
      }
      s.fault = *fault;
      s.pattern = toks[4].text;
      i = 5;
    } else if (verb == "expect" || verb == "expect-no") {
      s.kind = verb == "expect" ? StepKind::kExpect : StepKind::kExpectNo;
      if (toks.size() < 4) {
        error(line, toks[2].col, "parse-error",
              "usage: at <time> " + verb + " <msg-pattern> [options]");
        return;
      }
      s.pattern = toks[3].text;
      i = 4;
    } else {
      error(line, toks[2].col, "unknown-directive",
            "unknown step \"" + verb + "\"",
            "steps: inject, expect, expect-no");
      return;
    }
    if (!options(s, toks, i, line)) return;
    prog.steps.push_back(s);
  }

  bool options(Step& s, const std::vector<Token>& toks, std::size_t i,
               int line) {
    const bool inject = s.kind == StepKind::kInject;
    for (; i < toks.size(); i += 2) {
      const std::string& key = toks[i].text;
      if (i + 1 >= toks.size()) {
        error(line, toks[i].col, "parse-error",
              "option `" + key + "` is missing its value");
        return false;
      }
      const Token& v = toks[i + 1];
      const auto want_time = [&]() -> std::optional<sim::Duration> {
        const auto t = parse_time(v.text);
        if (!t) {
          error(line, v.col, "parse-error",
                "bad time \"" + v.text + "\" for `" + key + "`");
        }
        return t;
      };
      const auto want_int = [&](int lo) -> std::optional<int> {
        int n = 0;
        if (!campaign::kv::to_int(v.text, &n) || n < lo) {
          error(line, v.col, "parse-error",
                "bad value \"" + v.text + "\" for `" + key + "` (integer >= " +
                    std::to_string(lo) + ")");
          return std::nullopt;
        }
        return n;
      };
      if (inject && key == "after") {
        const auto n = want_int(0);
        if (!n) return false;
        s.after = *n;
      } else if (inject && key == "count") {
        const auto n = want_int(1);
        if (!n) return false;
        s.count = *n;
      } else if (inject && key == "for") {
        const auto t = want_time();
        if (!t) return false;
        s.window = *t;
      } else if (inject && key == "side") {
        if (v.text != "send" && v.text != "receive") {
          error(line, v.col, "parse-error",
                "side must be `send` or `receive`");
          return false;
        }
        s.on_send_side = v.text == "send";
      } else if (inject && key == "delay") {
        const auto t = want_time();
        if (!t) return false;
        s.delay = *t;
      } else if (inject && key == "copies") {
        const auto n = want_int(1);
        if (!n) return false;
        s.copies = *n;
      } else if (inject && key == "offset") {
        const auto n = want_int(0);
        if (!n) return false;
        s.offset = static_cast<std::size_t>(*n);
      } else if (inject && key == "batch") {
        const auto n = want_int(2);
        if (!n) return false;
        s.batch = *n;
      } else if (!inject && s.kind == StepKind::kExpect && key == "within") {
        const auto t = want_time();
        if (!t) return false;
        s.window = *t;
      } else if (!inject && s.kind == StepKind::kExpectNo && key == "for") {
        const auto t = want_time();
        if (!t) return false;
        s.window = *t;
      } else if (!inject && key == "dir") {
        if (v.text != "send" && v.text != "recv") {
          error(line, v.col, "parse-error", "dir must be `send` or `recv`");
          return false;
        }
        s.dir = v.text;
      } else if (!inject && s.kind == StepKind::kExpect && key == "min") {
        const auto n = want_int(1);
        if (!n) return false;
        s.min = *n;
      } else {
        error(line, toks[i].col, "parse-error",
              "unknown option `" + key + "` for " +
                  std::string(to_string(s.kind)),
              inject ? "inject options: after, count, for, side, delay, "
                       "copies, offset, batch"
                     : "expect options: within/for, dir, min");
        return false;
      }
    }
    return true;
  }

  std::string file_;
  std::vector<lint::Diagnostic>* diags_;
  int errors_ = 0;
};

}  // namespace

std::optional<Program> parse(const std::string& text, const std::string& file,
                             std::vector<lint::Diagnostic>* diags) {
  return Parser(file, diags).run(text);
}

std::optional<Program> load_file(const std::string& path,
                                 std::vector<lint::Diagnostic>* diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    diags->push_back({lint::Severity::kError, "parse-error", path, 0, 0,
                      "cannot read file", ""});
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path, diags);
}

core::failure::Scripts compile(const Program& prog) {
  std::vector<core::scriptgen::Window> windows;
  for (std::size_t i = 0; i < prog.steps.size(); ++i) {
    const Step& s = prog.steps[i];
    if (s.kind != StepKind::kInject) continue;
    core::scriptgen::Window w;
    w.tag = "w" + std::to_string(i);
    w.type = s.pattern;
    w.kind = s.fault;
    w.start = s.at;
    w.end = s.window < 0 ? -1 : s.at + s.window;
    w.after = s.after;
    w.count = s.count;
    w.opts.delay = s.delay;
    w.opts.duplicate_copies = s.copies;
    w.opts.corrupt_offset = s.offset;
    w.opts.reorder_batch = s.batch;
    w.opts.on_send_side = s.on_send_side;
    windows.push_back(std::move(w));
  }
  core::failure::Scripts s = core::scriptgen::generate_windows(windows);
  // Observation prelude: every message through either filter leaves a
  // timestamped trace record — the timeline evaluate() reads. Dropped
  // messages are still observed (the log happens before the action), which
  // is exactly the paper's probing discipline: the PFI layer sees the wire,
  // not the protocol's opinion of it.
  s.send = "msg_log cur_msg\n" + s.send;
  s.receive = "msg_log cur_msg\n" + s.receive;
  return s;
}

namespace {

std::string step_label(const Step& s, sim::Duration end_of_run) {
  std::string label = to_string(s.kind);
  if (s.kind == StepKind::kInject) {
    label += " " + std::string(core::scriptgen::to_string(s.fault));
  }
  label += " " + s.pattern;
  label += " @" + fmt_s(s.at) + "s";
  if (s.kind != StepKind::kInject || s.window >= 0) {
    label += ".." + fmt_s(s.window_end(end_of_run)) + "s";
  }
  if (!s.dir.empty()) label += " dir " + s.dir;
  if (s.kind == StepKind::kExpect && s.min > 1) {
    label += " min " + std::to_string(s.min);
  }
  return label;
}

}  // namespace

Outcome evaluate(const Program& prog, const trace::TraceLog& log,
                 sim::Duration end_of_run) {
  Outcome out;
  for (std::size_t i = 0; i < prog.steps.size(); ++i) {
    const Step& s = prog.steps[i];
    StepResult sr;
    sr.line = s.line;
    sr.label = step_label(s, end_of_run);

    if (s.kind == StepKind::kInject) {
      // Attribution only: count this window's trace_note firings.
      const std::string note = "conform-" +
                               std::string(core::scriptgen::to_string(s.fault)) +
                               " w" + std::to_string(i);
      std::size_t fired = 0;
      for (const trace::Record& rec : log.records()) {
        if (rec.direction == "note" && rec.detail == note) ++fired;
      }
      sr.note = "fired " + std::to_string(fired);
      out.steps.push_back(std::move(sr));
      continue;
    }

    const sim::TimePoint t0 = s.at;
    const sim::TimePoint t1 = s.window_end(end_of_run);
    std::size_t matched = 0;
    std::optional<sim::TimePoint> first;
    for (const trace::Record& rec : log.records()) {
      if (rec.direction != "send" && rec.direction != "recv") continue;
      if (!s.dir.empty() && rec.direction != s.dir) continue;
      if (s.pattern != "*" && rec.type != s.pattern) continue;
      if (rec.at < t0 || rec.at > t1) continue;
      if (!first) first = rec.at;
      ++matched;
    }
    if (s.kind == StepKind::kExpect) {
      sr.pass = matched >= static_cast<std::size_t>(s.min);
      if (sr.pass) {
        sr.note = "first at " + fmt_s(*first) + "s (" +
                  std::to_string(matched) + " matched)";
      } else {
        sr.note = "only " + std::to_string(matched) + " of " +
                  std::to_string(s.min) + " in window";
      }
    } else {
      sr.pass = matched == 0;
      sr.note = sr.pass ? "none observed"
                        : "unexpected at " + fmt_s(*first) + "s (" +
                              std::to_string(matched) + " matched)";
    }
    if (!sr.pass) {
      out.pass = false;
      if (out.first_divergence.empty()) {
        out.first_divergence =
            "line " + std::to_string(s.line) + ": " + sr.label + ": " + sr.note;
      }
    }
    out.steps.push_back(std::move(sr));
  }
  return out;
}

std::string step_line(const StepResult& s) {
  std::string out = s.pass ? "ok   " : "FAIL ";
  out += s.label;
  if (!s.note.empty()) out += "  [" + s.note + "]";
  return out;
}

}  // namespace pfi::conformance
