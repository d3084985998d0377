#include "campaign/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace pfi::campaign::flags {

int Parser::fail(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), msg.c_str());
  return 2;
}

bool Parser::apply(const Flag& f, std::string_view value) {
  if (f.set(value)) {
    given_.insert(f.name);
    return true;
  }
  fail(f.name + ": bad value '" + std::string(value) + "'" +
       (f.want.empty() ? "" : " (want " + f.want + ")"));
  return false;
}

int Parser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      std::fputs(usage().c_str(), stdout);
      return 0;
    }
    if (a.size() < 2 || a[0] != '-') {
      positionals_.emplace_back(a);
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string name(a.substr(0, eq));
    const Flag* f = nullptr;
    for (const Flag& row : rows_) {
      if (row.name == name) f = &row;
    }
    if (f == nullptr) return fail("unknown flag " + name + " (see --help)");
    std::string_view value;
    if (eq != std::string_view::npos) {
      if (f->value.empty()) return fail(name + " takes no value");
      value = a.substr(eq + 1);
    } else if (!f->value.empty() && !f->optional_value) {
      if (i + 1 >= argc) {
        return fail(name + " needs a value (" + f->value + ")");
      }
      value = argv[++i];
    }
    if (!apply(*f, value)) return 2;
  }
  for (const Flag& f : rows_) {
    if (f.env == nullptr || given(f.name)) continue;
    const char* v = std::getenv(f.env);
    if (v != nullptr && !apply(f, v)) return 2;
  }
  return -1;
}

std::string Parser::usage() const {
  std::string out;
  for (std::size_t i = 0; i < synopsis_.size(); ++i) {
    out += (i == 0 ? "usage: " : "       ") + prog_ + " " + synopsis_[i] +
           "\n";
  }
  const auto line = [&out](std::string left, const std::string& help) {
    left.resize(std::max<std::size_t>(left.size() + 2, 26), ' ');
    out += left + help + "\n";
  };
  for (const Flag& f : rows_) {
    std::string left = "  " + f.name;
    if (f.optional_value) {
      left += "[=" + f.value + "]";
    } else if (!f.value.empty()) {
      left += " " + f.value;
    }
    line(left, f.env != nullptr ? f.help + " (or $" + f.env + ")" : f.help);
  }
  line("  -h, --help", "print this help and exit");
  return out;
}

}  // namespace pfi::campaign::flags
