#include "campaign/spec.hpp"

#include <fstream>
#include <sstream>

#include "campaign/kv.hpp"
#include "campaign/vendors.hpp"

namespace pfi::campaign {

using core::scriptgen::FaultKind;

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

bool parse_fault(const std::string& s, FaultKind* out) {
  if (s == "drop") *out = FaultKind::kDrop;
  else if (s == "delay") *out = FaultKind::kDelay;
  else if (s == "duplicate") *out = FaultKind::kDuplicate;
  else if (s == "corrupt") *out = FaultKind::kCorrupt;
  else if (s == "reorder") *out = FaultKind::kReorder;
  else return false;
  return true;
}

/// "1000..1033" (inclusive) or a single number.
bool parse_seed_token(std::string_view tok,
                      std::vector<std::uint64_t>* seeds) {
  const auto dots = tok.find("..");
  std::uint64_t lo = 0, hi = 0;
  if (dots == std::string_view::npos) {
    if (!kv::to_int(tok, &lo)) return false;
    hi = lo;
  } else if (!kv::to_int(tok.substr(0, dots), &lo) ||
             !kv::to_int(tok.substr(dots + 2), &hi)) {
    return false;
  }
  if (hi < lo || hi - lo > 100000) return false;
  // Count up, not `s <= hi`: that never ends when hi is the top u64.
  for (std::uint64_t i = 0; i <= hi - lo; ++i) seeds->push_back(lo + i);
  return true;
}

std::string basename_no_ext(const std::string& path) {
  auto slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  auto dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

std::string default_oracle(const std::string& protocol) {
  if (protocol == "tcp") return "spec";
  if (protocol == "tpc") return "atomic";
  return "agreement";
}

}  // namespace

std::optional<CampaignSpec> parse_spec(const std::string& text,
                                       std::string* err, int* err_line) {
  CampaignSpec spec;
  spec.seeds.clear();
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (err) *err = "line " + std::to_string(lineno) + ": " + msg;
    if (err_line) *err_line = lineno;
    return std::nullopt;
  };

  while (std::getline(is, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const auto toks = split_ws(line);
    if (toks.empty()) continue;
    const std::string& key = toks[0];
    const std::vector<std::string> args(toks.begin() + 1, toks.end());
    auto one = [&]() -> const std::string& {
      static const std::string empty;
      return args.empty() ? empty : args[0];
    };
    // Numbers are strict (campaign/kv.hpp): a whole in-range integer.
    auto bad_number = [&] {
      return fail("bad " + key + " '" + one() + "' (want an integer)");
    };
    int n = 0;

    if (key == "name") {
      spec.name = one();
    } else if (key == "protocol") {
      spec.protocol = one();
      if (spec.protocol != "gmp" && spec.protocol != "tcp" &&
          spec.protocol != "tpc") {
        return fail("unknown protocol '" + spec.protocol + "'");
      }
    } else if (key == "oracle") {
      spec.oracle = one();
    } else if (key == "types") {
      spec.types = args;
    } else if (key == "faults") {
      spec.faults.clear();
      for (const auto& a : args) {
        FaultKind k;
        if (!parse_fault(a, &k)) {
          return fail("unknown fault '" + a +
                      "' (drop|delay|duplicate|corrupt|reorder)");
        }
        spec.faults.push_back(k);
      }
    } else if (key == "seeds") {
      for (const auto& a : args) {
        if (!parse_seed_token(a, &spec.seeds)) {
          return fail("bad seed token '" + a + "' (N or LO..HI)");
        }
      }
    } else if (key == "scripts") {
      for (const auto& a : args) spec.script_files.push_back(a);
    } else if (key == "vendors") {
      for (const auto& a : args) {
        if (!vendor_profile(a)) {
          return fail("unknown vendor '" + a + "' (want " + vendor_choices() +
                      ")");
        }
      }
      spec.vendors = args;
    } else if (key == "scenario") {
      spec.scenario = one();
    } else if (key == "burst") {
      if (!kv::to_int(one(), &spec.burst)) return bad_number();
      if (spec.burst < 1) return fail("burst must be >= 1");
    } else if (key == "first_occurrence") {
      if (!kv::to_int(one(), &spec.first_occurrence)) return bad_number();
    } else if (key == "side") {
      if (one() == "send") spec.on_send_side = true;
      else if (one() == "receive") spec.on_send_side = false;
      else return fail("side must be send|receive");
    } else if (key == "delay_ms") {
      if (!kv::to_int(one(), &n)) return bad_number();
      spec.delay = sim::msec(n);
    } else if (key == "nodes") {
      if (!kv::to_int(one(), &spec.nodes)) return bad_number();
      if (spec.nodes < 2) return fail("nodes must be >= 2");
    } else if (key == "target_node") {
      if (!kv::to_int(one(), &spec.target_node)) return bad_number();
    } else if (key == "warmup_s") {
      if (!kv::to_int(one(), &n)) return bad_number();
      spec.warmup = sim::sec(n);
    } else if (key == "duration_s") {
      if (!kv::to_int(one(), &n)) return bad_number();
      spec.duration = sim::sec(n);
    } else if (key == "jitter_ms") {
      if (!kv::to_int(one(), &n)) return bad_number();
      spec.jitter = sim::msec(n);
    } else if (key == "buggy") {
      spec.buggy = one() == "true" || one() == "1";
    } else if (key == "timeout_ms") {
      if (!kv::to_int(one(), &spec.timeout_ms)) return bad_number();
      if (spec.timeout_ms < 0) return fail("timeout_ms must be >= 0");
    } else if (key == "max_events") {
      if (!kv::to_int(one(), &spec.max_sim_events)) return bad_number();
    } else if (key == "retries") {
      if (!kv::to_int(one(), &spec.retries)) return bad_number();
      if (spec.retries < 0) return fail("retries must be >= 0");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }

  if (spec.seeds.empty()) spec.seeds.push_back(1);
  if (spec.oracle.empty()) spec.oracle = default_oracle(spec.protocol);
  if (spec.script_files.empty()) {
    if (spec.types.empty()) {
      lineno = 0;
      return fail("spec needs 'types' (with 'faults') or 'scripts'");
    }
    if (spec.faults.empty()) spec.faults.push_back(FaultKind::kDrop);
  }
  return spec;
}

std::optional<CampaignSpec> load_spec_file(const std::string& path,
                                           std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  auto spec = parse_spec(buf.str(), err);
  if (!spec && err) *err = path + ": " + *err;
  return spec;
}

std::vector<RunCell> plan(const CampaignSpec& spec) {
  std::vector<RunCell> cells;
  const std::vector<std::string> vendors =
      spec.protocol == "tcp"
          ? (spec.vendors.empty() ? std::vector<std::string>{"sunos"}
                                  : spec.vendors)
          : std::vector<std::string>{""};

  auto base_cell = [&](const std::string& vendor, std::uint64_t seed) {
    RunCell c;
    c.index = static_cast<int>(cells.size());
    c.protocol = spec.protocol;
    c.oracle = spec.oracle;
    c.vendor = vendor;
    c.seed = seed;
    c.nodes = spec.nodes;
    c.target_node = spec.target_node;
    c.warmup = spec.warmup;
    c.duration = spec.duration;
    c.jitter = spec.jitter;
    c.buggy = spec.buggy;
    c.timeout_ms = spec.timeout_ms;
    c.max_sim_events = spec.max_sim_events;
    c.scenario = spec.scenario;
    return c;
  };
  auto id_prefix = [&](const std::string& vendor) {
    return vendor.empty() ? spec.protocol : spec.protocol + "/" + vendor;
  };

  for (const auto& vendor : vendors) {
    if (!spec.script_files.empty()) {
      for (const auto& file : spec.script_files) {
        for (std::uint64_t seed : spec.seeds) {
          RunCell c = base_cell(vendor, seed);
          c.script_file = file;
          c.id = id_prefix(vendor) + "/" + basename_no_ext(file) + "/s" +
                 std::to_string(seed);
          cells.push_back(std::move(c));
        }
      }
      continue;
    }
    for (const auto& type : spec.types) {
      for (FaultKind kind : spec.faults) {
        for (std::uint64_t seed : spec.seeds) {
          RunCell c = base_cell(vendor, seed);
          c.schedule = burst(type, kind, spec.first_occurrence, spec.burst,
                             spec.on_send_side, spec.delay);
          c.id = id_prefix(vendor) + "/" + type + "/" +
                 core::scriptgen::to_string(kind) + "/s" +
                 std::to_string(seed);
          cells.push_back(std::move(c));
        }
      }
    }
  }
  return cells;
}

std::vector<RunCell> filter_cells(std::vector<RunCell> cells,
                                  const std::string& substr) {
  if (substr.empty()) return cells;
  std::vector<RunCell> out;
  for (auto& c : cells) {
    if (c.id.find(substr) != std::string::npos) {
      c.index = static_cast<int>(out.size());
      out.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace pfi::campaign
