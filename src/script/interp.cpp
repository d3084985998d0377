#include "script/interp.hpp"

#include <utility>

namespace pfi::script {

Interp::Interp() {
  frames_.emplace_back();  // global frame
  install_builtins();
}

Result Interp::eval(std::string_view script) {
  parse::Script scratch;
  return run(parsed(scripts_, script, scratch, [](std::string_view text) {
    return parse::parse_script(text);
  }));
}

Result Interp::run(const parse::Script& script) {
  ++stats_.evals;
  if (++depth_ > max_depth_) {
    --depth_;
    return Result::error("too many nested evaluations (infinite recursion?)");
  }
  Result last = Result::ok();
  std::vector<std::string> words;
  for (const parse::Command& cmd : script.commands) {
    words.clear();
    for (const parse::Word& w : cmd.words) {
      last = subst(w, w.parts, words.emplace_back());
      if (!last.is_ok()) break;
    }
    if (last.is_ok()) last = invoke(words);
    if (last.code != Code::kOk) {
      // Re-stamp even when an inner eval already set a line: the innermost
      // number is relative to a body string the caller never saw, while
      // this one locates the failing top-level command in `script`.
      if (last.code == Code::kError) last.line = cmd.line;
      break;
    }
  }
  --depth_;
  return last;
}

Result Interp::subst(const parse::Word& w,
                     const std::vector<parse::Part>& parts, std::string& out) {
  using Kind = parse::Part::Kind;
  for (const parse::Part& p : parts) {
    switch (p.kind) {
      case Kind::kText:
        out += p.text;
        break;
      case Kind::kVar: {
        std::string element;
        if (p.array) {
          element = p.text + '(';
          if (Result r = subst(w, p.index, element); !r.is_ok()) return r;
          element += ')';
        }
        const std::string& name = p.array ? element : p.text;
        auto value = get_var(name);
        if (!value) {
          return Result::error("can't read \"" + name +
                               "\": no such variable");
        }
        out += *value;
        break;
      }
      case Kind::kCommand: {
        Result r = run(w.nested[p.script]);
        if (r.code == Code::kError) return r;
        out += r.value;
        break;
      }
      case Kind::kError:
        return Result::error(p.text);
    }
  }
  return Result::ok();
}

Result Interp::invoke(const std::vector<std::string>& words) {
  ++stats_.commands;
  if (watchdog_tripped()) {
    return Result::error("watchdog: execution budget exceeded");
  }
  auto it = commands_.find(words[0]);
  if (it == commands_.end()) {
    return Result::error("invalid command name \"" + words[0] + "\"");
  }
  return it->second(*this, words);
}

void Interp::register_command(std::string name, Command fn) {
  commands_[std::move(name)] = std::move(fn);
}

void Interp::unregister_command(const std::string& name) {
  commands_.erase(name);
}

bool Interp::has_command(const std::string& name) const {
  return commands_.contains(name);
}

std::vector<std::string> Interp::command_names() const {
  std::vector<std::string> out;
  out.reserve(commands_.size());
  for (const auto& [name, _] : commands_) out.push_back(name);
  return out;
}

namespace {
/// For an array element "a(k)", the name that `global` would have aliased.
std::string global_alias_base(const std::string& name) {
  const auto paren = name.find('(');
  return paren == std::string::npos ? name : name.substr(0, paren);
}
}  // namespace

std::optional<std::string> Interp::get_var(const std::string& name) const {
  const Frame& frame = frames_.back();
  if (frames_.size() > 1 && (frame.globals.contains(name) ||
                             frame.globals.contains(global_alias_base(name)))) {
    return get_global(name);
  }
  if (auto it = frame.vars.find(name); it != frame.vars.end()) {
    return it->second;
  }
  return std::nullopt;
}

void Interp::set_var(const std::string& name, std::string value) {
  Frame& frame = frames_.back();
  if (frames_.size() > 1 && (frame.globals.contains(name) ||
                             frame.globals.contains(global_alias_base(name)))) {
    set_global(name, std::move(value));
    return;
  }
  frame.vars[name] = std::move(value);
}

bool Interp::unset_var(const std::string& name) {
  Frame& frame = frames_.back();
  if (frames_.size() > 1 && (frame.globals.contains(name) ||
                             frame.globals.contains(global_alias_base(name)))) {
    return frames_.front().vars.erase(name) > 0;
  }
  return frame.vars.erase(name) > 0;
}

std::optional<std::string> Interp::get_global(const std::string& name) const {
  const Frame& global = frames_.front();
  if (auto it = global.vars.find(name); it != global.vars.end()) {
    return it->second;
  }
  return std::nullopt;
}

void Interp::set_global(const std::string& name, std::string value) {
  frames_.front().vars[name] = std::move(value);
}

void Interp::mark_global(const std::string& name) {
  frames_.back().globals.insert(name);
}

std::vector<std::string> Interp::var_names() const {
  std::vector<std::string> out;
  const Frame& frame = frames_.back();
  for (const auto& [name, value] : frame.vars) out.push_back(name);
  if (frames_.size() > 1) {
    for (const auto& name : frame.globals) {
      if (get_global(name)) out.push_back(name);
      // A `global a` alias covers every element of array a.
      const std::string prefix = name + "(";
      for (const auto& [gname, gvalue] : frames_.front().vars) {
        if (gname.rfind(prefix, 0) == 0) out.push_back(gname);
      }
    }
  }
  return out;
}

std::string Interp::take_output() { return std::exchange(output_, {}); }

}  // namespace pfi::script
