#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"cells_per_s", "1/s"},       {"cell_p50_ms", "ms"},
    {"cell_p90_ms", "ms"},        {"cpu_ms_per_cell", "ms"},
    {"sim_s_per_host_s", "s/s"},  {"digests_per_s", "1/s"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"pfi.msgs_per_cell", "count"},
    {"pfi.self_ns_per_msg", "ns"},
    {"pfi.stub_ns_per_msg", "ns"},
    {"pfi.faults_per_cell", "count"},
    {"script.evals_per_cell", "count"},
    {"script.commands_per_eval", "count"},
    {"script.filter_ns_per_msg", "ns"},
    {"sim.events_per_cell", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.queue_high_water", "count"},
    {"xk.crossings_per_cell", "count"},
    {"xk.probe_overhead_pct", "%"},
    {"net.frames_per_cell", "count"},
    {"net.self_ns_per_frame", "ns"},
    {"gmp.self_ns_per_msg", "ns"},
    {"tcp.segments_per_cell", "count"},
    {"tcp.self_ns_per_segment", "ns"},
    {"spec.self_ns_per_segment", "ns"},
    {"trace.records_per_cell", "count"},
    {"obs.coverage_us_per_cell", "us"},
    {"campaign.record_json_us_per_cell", "us"},
    {"campaign.plan_ms", "ms"},
    {"conformance.parse_us_per_timeline", "us"},
    {"conformance.compile_us_per_cell", "us"},
    {"conformance.evaluate_us_per_cell", "us"},
    {"search.new_digest_ratio", "ratio"},
    {"search.equiv_skip_ratio", "ratio"},
    {"search.mutate_us_per_mutant", "us"},
    {"lint.canonical_key_us_per_schedule", "us"},
    {"fabric.coord_us_per_cell", "us"},
    {"fabric.obs_plane_us_per_cell", "us"},
    {"fabric.leases_per_cell", "count"},
    {"fabric.worker_cpu_ms_per_cell", "ms"},
    {"host.effective_cores", "count"},
};

void Report::metric(const std::string& name, double value) {
  const auto& defs = table();
  if (std::none_of(defs.begin(), defs.end(),
                   [&](const MetricDef& d) { return name == d.name; })) {
    throw std::logic_error("metric " + name + " is not in this run's table");
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Report::ratio(const std::string& name, const Ratio& r) {
  metric(name, r.value());
  note("# " + name + " = " + r.describe());
}

void Report::note(const std::string& line) const {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::fail_check(const std::string& why) {
  checks_ok_ = false;
  note("# CHECK FAILED: " + why);
}

void Report::fill_unmeasured() {
  std::string missing;
  for (const MetricDef& d : table()) {
    bool have = false;
    for (const auto& [n, v] : values_) have = have || n == d.name;
    if (have) continue;
    values_.emplace_back(d.name, 0.0);
    missing += std::string(missing.empty() ? "" : " ") + d.name;
  }
  if (!missing.empty()) note("# not run by this workload (reported as 0): " + missing);
}

std::string Report::json() const {
  const std::uint64_t failed = checks_ok_ ? errored_ : attempted_;
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : table()) {
    for (const auto& [n, v] : values_) {
      if (n != d.name || !std::isfinite(v)) continue;
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", d.name, v, d.unit);
      out += buf;
      first = false;
    }
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
