// The workloads, each a closed loop with one client: a cell starts only
// when the previous one has finished.
//
//   gmp-campaign  scripts/campaign_gmp_omission.spec, 204 cells, looped
//   tcp-suite     suites/tcp, 5 timelines x 4 vendors = 20 cells, looped
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// rebuild cells with probe layers (traced.cpp) and report per-layer ones.
// gmp-campaign's traced run also prices the fabric layer
// (fabric::run_fabric with one forked worker) and the search and lint
// layers (one search::explore of the same spec).
#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"
#include "conformance/conformance.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/flight.hpp"
#include "fabric/socket.hpp"
#include "fabric/worker.hpp"
#include "host.hpp"
#include "lint/canonical.hpp"
#include "obs/coverage.hpp"
#include "report.hpp"
#include "search/mutate.hpp"
#include "search/prng.hpp"
#include "search/search.hpp"
#include "spans.hpp"
#include "traced.hpp"

namespace perfbench {

namespace {

using namespace pfi;
using campaign::RunCell;
using campaign::RunResult;

/// The search seed of tests/golden/search_gmp_omission.digests.
constexpr std::uint64_t kGoldenSearchSeed = 7;
/// FNV-1a 64 of the newline-joined record_json lines of the shipped
/// 204-cell GMP spec (the default seed's gmp-campaign records).
constexpr const char* kGmpRecordsDigest = "f097031b0a5431f4";

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Median wall time of `reps` calls of `fn`, seconds.
double median_time(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(secs(now_ns() - t0));
  }
  return median(t);
}

/// Set-ups per sample taken between passes; the sample is their median, so
/// it prices a set-up with warm caches rather than the first touch after a
/// pass has filled them with simulation state.
constexpr int kSetupReps = 5;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// ---- inputs ---------------------------------------------------------------

/// The shipped GMP omission spec. Any seed but the default moves the whole
/// 34-seed simulation axis to a fresh, disjoint block of seeds.
std::optional<campaign::CampaignSpec> gmp_spec(const Args& a, std::string* err) {
  auto spec = campaign::load_spec_file(
      a.root + "/scripts/campaign_gmp_omission.spec", err);
  if (spec && a.seed != kDefaultSeed) {
    const std::uint64_t shift = ((a.seed - 1) % 1'000'000) * spec->seeds.size();
    for (std::uint64_t& s : spec->seeds) s += shift;
  }
  return spec;
}

std::vector<RunCell> gmp_cells(const Args& a, std::string* err) {
  const auto spec = gmp_spec(a, err);
  return spec ? campaign::plan(*spec) : std::vector<RunCell>{};
}

/// The suites/tcp matrix. Its simulation seeds are pinned by the .pdt
/// headers (and by the golden matrix), so the seed only shuffles the order
/// in which the closed loop visits the 20 cells.
std::vector<RunCell> suite_cells(const Args& a, std::string* err) {
  auto cells = campaign::plan_suite(a.root + "/suites/tcp", err);
  if (!cells) return {};
  if (a.seed != kDefaultSeed) {
    search::SplitMix64 rng(a.seed);
    for (std::size_t i = cells->size(); i > 1; --i) {
      std::swap((*cells)[i - 1], (*cells)[rng.below(i)]);
    }
  }
  return *cells;
}

// ---- correctness ----------------------------------------------------------

/// Once a check has failed, later failures of the same check stay quiet.
struct Check {
  Report& rep;
  std::set<std::string> failed;

  void expect(bool ok, const std::string& what, const std::string& detail = "") {
    if (ok || !failed.insert(what).second) return;
    rep.fail_check(what + (detail.empty() ? "" : ": " + detail));
  }
};

std::string records_text(const std::vector<RunResult>& rs) {
  std::string out;
  for (const RunResult& r : rs) out += campaign::record_json(r) + '\n';
  return out;
}

/// mc and proclaim drops fail the quiet oracle; every other cell passes.
void check_gmp_split(const std::vector<RunResult>& rs, Check& check) {
  for (const RunResult& r : rs) {
    const bool expect_fail = r.id.find("/gmp-mc/") != std::string::npos ||
                             r.id.find("/gmp-proclaim/") != std::string::npos;
    check.expect(!r.errored() && r.pass != expect_fail,
                 "gmp pass/fail split", r.id + " " + r.error + r.reason);
  }
}

void check_gmp_reference(const Args& a, const std::vector<RunResult>& rs,
                         Check& check) {
  check.expect(rs.size() == 204, "gmp spec plans 204 cells");
  check_gmp_split(rs, check);
  const std::string digest = obs::fnv1a_hex(records_text(rs));
  check.rep.note("# records digest " + digest);
  if (a.seed == kDefaultSeed) {
    check.expect(digest == kGmpRecordsDigest, "pinned gmp records digest",
                 digest + " != " + kGmpRecordsDigest);
  }
}

/// The golden per-step matrix: "<id> <verdict>" then indented step lines,
/// cells in plan order.
std::string matrix_of(std::vector<RunResult> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const RunResult& x, const RunResult& y) { return x.index < y.index; });
  std::string m;
  for (const RunResult& r : rs) {
    m += r.id + ' ' + (r.errored() ? "error" : r.pass ? "pass" : "fail") + '\n';
    for (const std::string& s : r.steps) m += "  " + s + '\n';
  }
  return m;
}

std::vector<std::string> violation_set(const search::SearchResult& r) {
  std::vector<std::string> out;
  for (const auto& v : r.violations) {
    out.push_back(v.id + ' ' + v.digest + ' ' + v.reason + " -> " +
                  v.minimized.summary());
  }
  return out;
}

std::set<std::string> golden_digests(const Args& a) {
  std::ifstream in(a.root + "/tests/golden/search_gmp_omission.digests");
  std::set<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') out.insert(line);
  }
  return out;
}

void check_golden_digests(const Args& a, const search::SearchResult& r,
                          Check& check) {
  if (a.seed != kDefaultSeed) return;
  const auto golden = golden_digests(a);
  check.expect(!golden.empty(), "golden search digests readable");
  for (const std::string& d : golden) {
    check.expect(r.corpus.has_digest(d), "golden search digests rediscovered",
                 "lost " + d);
  }
}

// ---- the timed loop -------------------------------------------------------

/// Totals over the timed passes (rates are total work over total wall
/// time), one latency sample per cell, and one set-up sample per pass (set
/// up between passes, so it is sampled across the whole run).
struct Loop {
  std::vector<double> latency_ms;
  std::vector<double> setup_s;
  std::size_t passes = 0;
  std::uint64_t cells = 0;
  std::uint64_t errored = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double sim_s = 0;
  double digests = 0;  // distinct coverage digests, summed over passes

  void pass(std::size_t n, double wall, double cpu, double sim,
            std::size_t distinct) {
    ++passes;
    cells += n;
    wall_s += wall;
    cpu_s += cpu;
    sim_s += sim;
    digests += static_cast<double>(distinct);
  }
};

std::size_t distinct_digests(const std::vector<RunResult>& rs) {
  std::set<std::string> d;
  for (const RunResult& r : rs) d.insert(r.coverage.digest);
  return d.size();
}

/// One pass over `cells` through campaign::run_cell, in order.
std::vector<RunResult> run_pass(const std::vector<RunCell>& cells, Loop* loop) {
  std::vector<RunResult> out;
  out.reserve(cells.size());
  const double cpu0 = cpu_self_s();
  const std::int64_t t0 = now_ns();
  for (const RunCell& c : cells) {
    const std::int64_t c0 = now_ns();
    out.push_back(campaign::run_cell(c));
    if (loop != nullptr) loop->latency_ms.push_back(1e-6 * static_cast<double>(now_ns() - c0));
  }
  const double wall = secs(now_ns() - t0);
  if (loop != nullptr) {
    double sim = 0;
    for (const RunResult& r : out) {
      sim += r.sim_seconds;
      loop->errored += r.errored() ? 1 : 0;
    }
    loop->pass(out.size(), wall, cpu_self_s() - cpu0, sim, distinct_digests(out));
  }
  return out;
}

void report_end_to_end(Report& rep, const Loop& loop) {
  const auto cells = static_cast<double>(loop.cells);
  rep.metric("cells_per_s", cells / loop.wall_s);
  const std::size_t n = loop.latency_ms.size();
  for (const auto& [name, p] : {std::pair{"cell_p50_ms", 0.5}, std::pair{"cell_p90_ms", 0.9}}) {
    const auto v = tail_percentile(loop.latency_ms, p);
    if (v) {
      rep.metric(name, *v);
      rep.note(fmt("# %s = %.4f ms over %zu samples (%zu beyond)", name, *v, n,
                   samples_beyond(n, p)));
    } else {
      rep.note(fmt("# %s withheld: %zu samples leave fewer than %zu beyond it",
                   name, n, kMinTail));
    }
  }
  rep.metric("cpu_ms_per_cell", 1e3 * loop.cpu_s / cells);
  rep.metric("sim_s_per_host_s", loop.sim_s / loop.wall_s);
  rep.metric("digests_per_s", loop.digests / loop.wall_s);
  rep.metric("setup_s", median(loop.setup_s));
  rep.metric("peak_rss_mb", peak_rss_mb());
  rep.note(fmt("# timed: %zu passes, %llu cells, wall %.3f s, cpu %.3f s; "
               "setup_s is the median of %zu samples between passes",
               loop.passes, static_cast<unsigned long long>(loop.cells),
               loop.wall_s, loop.cpu_s, loop.setup_s.size()));
  rep.cells(loop.cells, loop.errored);
}

// ---- the traced loop ------------------------------------------------------

struct LayerAcc {
  std::uint64_t cells = 0;
  std::uint64_t errored = 0;
  std::array<SinkTotal, static_cast<std::size_t>(Layer::kCount)> layer{};
  std::uint64_t frames = 0;     // crossings of the ip <-> netdev boundary
  std::uint64_t segments = 0;   // crossings directly below a TCP layer
  std::uint64_t crossings = 0;  // all probe spans
  std::int64_t sim_self_ns = 0;
  std::uint64_t traced_events = 0;
  std::int64_t stub_ns = 0;
  std::uint64_t stub_calls = 0;
  std::int64_t coverage_ns = 0, compile_ns = 0, evaluate_ns = 0, record_ns = 0;
  std::uint64_t conform_cells = 0;
  std::int64_t traced_ns = 0, untraced_ns = 0;
  // Counts from RunResult (and its metrics snapshot).
  std::uint64_t pfi_msgs = 0, faults = 0, evals = 0, commands = 0, events = 0,
                queue_high_water = 0, frames_sent = 0, segments_sent = 0,
                trace_records = 0;
  TracedCell last;  // its spans are written out when the run ends

  SinkTotal& of(Layer l) { return layer[static_cast<std::size_t>(l)]; }
  const SinkTotal& of(Layer l) const { return layer[static_cast<std::size_t>(l)]; }
};

std::uint64_t counter(const RunResult& r, std::string_view name) {
  for (const obs::MetricSample& s : r.metrics) {
    if (s.name == name) return s.value;
  }
  return 0;
}

/// Run cells (cycling) until `deadline`, each once untraced through
/// campaign::run_cell and once through the probed testbed, alternating
/// which goes first. The traced verdict and coverage digest must equal the
/// untraced record's.
void trace_cells(const std::vector<RunCell>& cells, std::int64_t deadline,
                 LayerAcc& acc, Check& check) {
  std::size_t i = 0;
  do {
    const RunCell& c = cells[i % cells.size()];
    RunResult r;
    TracedCell t;
    const auto untraced = [&] {
      const std::int64_t t0 = now_ns();
      r = campaign::run_cell(c);
      acc.untraced_ns += now_ns() - t0;
    };
    const auto traced = [&] {
      t = run_traced(c);
      acc.traced_ns += t.wall_ns - t.stub_ns;  // the stub timing is extra work
    };
    if (i++ % 2 == 0) {
      traced();
      untraced();
    } else {
      untraced();
      traced();
    }
    ++acc.cells;
    acc.errored += r.errored() ? 1 : 0;
    const auto shape = [](bool pass, const std::string& digest,
                          std::uint64_t events, std::uint64_t records) {
      return fmt("%s %s, %llu events, %llu trace records", pass ? "pass" : "fail",
                 digest.c_str(), static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(records));
    };
    const std::string traced_shape = shape(t.pass, t.digest, t.events, t.trace_records);
    const std::string record_shape = shape(r.pass, r.coverage.digest,
                                           counter(r, "sim.events_dispatched"),
                                           r.trace_records);
    check.expect(t.error.empty() && !r.errored() && traced_shape == record_shape,
                 "traced cell equals run_cell's record",
                 c.id + ": traced " + traced_shape + t.error + " vs " + record_shape +
                     r.error);

    const std::int64_t j0 = now_ns();
    const std::string record = campaign::record_json(r);
    acc.record_ns += now_ns() - j0;

    const auto totals = self_times(t.spans, t.sinks.size());
    for (std::size_t k = 0; k < totals.size(); ++k) {
      const Sink& s = t.sinks[k];
      SinkTotal& l = acc.of(s.layer);
      l.self_ns += totals[k].self_ns;
      l.count += totals[k].count;
      if (s.frame) acc.frames += totals[k].count;
      if (s.segment) acc.segments += totals[k].count;
      if (s.layer != Layer::kProbe) acc.crossings += totals[k].count;
    }
    acc.sim_self_ns += t.sched_ns - t.sched_covered_ns;
    acc.traced_events += t.events;
    acc.stub_ns += t.stub_ns;
    acc.stub_calls += t.stub_calls;
    acc.coverage_ns += t.coverage_ns;
    acc.compile_ns += t.compile_ns;
    acc.evaluate_ns += t.evaluate_ns;
    acc.conform_cells += c.conform_file.empty() ? 0 : 1;

    acc.pfi_msgs += counter(r, "pfi.sends_intercepted") + counter(r, "pfi.recvs_intercepted");
    acc.faults += r.faults_injected;
    acc.evals += counter(r, "script.send.evals") + counter(r, "script.recv.evals");
    acc.commands += counter(r, "script.send.commands") + counter(r, "script.recv.commands");
    acc.events += counter(r, "sim.events_dispatched");
    acc.queue_high_water = std::max(acc.queue_high_water, counter(r, "sim.queue_high_water"));
    acc.frames_sent += counter(r, "net.frames_sent");
    acc.segments_sent += counter(r, "tcp.vendor.segments_sent") + counter(r, "tcp.xk.segments_sent");
    acc.trace_records += counter(r, "trace.records");
    acc.last = std::move(t);
  } while (now_ns() < deadline);
}

/// A per-unit layer metric with its base; left unset (0) without a base.
void per(Report& rep, const std::string& name, double num, const char* num_what,
         double den, const char* den_what, double scale = 1.0) {
  if (den <= 0) return;
  rep.ratio(name, Ratio{num * scale, den, num_what, den_what});
}

void report_layers(Report& rep, const LayerAcc& a, const Args& args) {
  const auto n = static_cast<double>(a.cells);
  const auto d = [](auto v) { return static_cast<double>(v); };
  const SinkTotal& pfi = a.of(Layer::kPfi);
  const SinkTotal& gmp = a.of(Layer::kGmp);
  const SinkTotal& net = a.of(Layer::kNet);
  const SinkTotal& tcp = a.of(Layer::kTcp);
  const SinkTotal& spec = a.of(Layer::kSpec);

  rep.note(fmt("# traced %llu cells; counts from RunResult::metrics, times "
               "from probe spans",
               static_cast<unsigned long long>(a.cells)));
  per(rep, "pfi.msgs_per_cell", d(a.pfi_msgs), "msgs", n, "cells");
  per(rep, "pfi.self_ns_per_msg", d(pfi.self_ns), "ns", d(pfi.count), "pfi spans");
  per(rep, "pfi.stub_ns_per_msg", d(a.stub_ns), "ns", d(a.stub_calls), "type_of calls");
  per(rep, "pfi.faults_per_cell", d(a.faults), "faults", n, "cells");
  per(rep, "script.evals_per_cell", d(a.evals), "evals", n, "cells");
  per(rep, "script.commands_per_eval", d(a.commands), "commands", d(a.evals), "evals");
  if (pfi.count > 0 && a.stub_calls > 0) {
    const double filter = d(pfi.self_ns) / d(pfi.count) - d(a.stub_ns) / d(a.stub_calls);
    rep.metric("script.filter_ns_per_msg", filter);
    rep.note(fmt("# script.filter_ns_per_msg = %.4f (pfi.self_ns_per_msg - "
                 "pfi.stub_ns_per_msg)", filter));
  }
  per(rep, "sim.events_per_cell", d(a.events), "events", n, "cells");
  per(rep, "sim.self_ns_per_event", d(a.sim_self_ns), "ns", d(a.traced_events), "events");
  rep.metric("sim.queue_high_water", d(a.queue_high_water));
  per(rep, "xk.crossings_per_cell", d(a.crossings), "crossings", n, "cells");
  if (a.untraced_ns > 0) {
    const double pct = 100.0 * d(a.traced_ns - a.untraced_ns) / d(a.untraced_ns);
    rep.metric("xk.probe_overhead_pct", pct);
    rep.note(fmt("# xk.probe_overhead_pct = %.4f (traced %.0f ms vs untraced "
                 "%.0f ms over the same %llu cells)",
                 pct, 1e-6 * d(a.traced_ns), 1e-6 * d(a.untraced_ns),
                 static_cast<unsigned long long>(a.cells)));
  }
  per(rep, "net.frames_per_cell", d(a.frames_sent), "frames", n, "cells");
  per(rep, "net.self_ns_per_frame", d(net.self_ns), "ns", d(a.frames), "device crossings");
  per(rep, "gmp.self_ns_per_msg", d(gmp.self_ns), "ns", d(gmp.count), "gmd/rel spans");
  per(rep, "tcp.segments_per_cell", d(a.segments_sent), "segments", n, "cells");
  per(rep, "tcp.self_ns_per_segment", d(tcp.self_ns), "ns", d(a.segments), "crossings below tcp");
  per(rep, "spec.self_ns_per_segment", d(spec.self_ns), "ns", d(spec.count), "spec spans");
  per(rep, "trace.records_per_cell", d(a.trace_records), "records", n, "cells");
  per(rep, "obs.coverage_us_per_cell", d(a.coverage_ns), "us", n, "cells", 1e-3);
  per(rep, "campaign.record_json_us_per_cell", d(a.record_ns), "us", n, "cells", 1e-3);
  per(rep, "conformance.compile_us_per_cell", d(a.compile_ns), "us", d(a.conform_cells), "cells", 1e-3);
  per(rep, "conformance.evaluate_us_per_cell", d(a.evaluate_ns), "us", d(a.conform_cells), "cells", 1e-3);
  rep.cells(a.cells, a.errored);

  // Spans of the last traced cell, one JSON object a line.
  const std::string path = args.artifacts + "/spans-" + args.workload + ".jsonl";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::int64_t base = a.last.spans.empty() ? 0 : a.last.spans.front().start_ns;
    for (const Span& s : a.last.spans) {
      std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   a.last.sinks[s.sink].name.c_str(),
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base), s.parent);
    }
    std::fclose(f);
    rep.note("# spans of the last traced cell: " + path);
  }
}

// ---- gmp-fabric building blocks ------------------------------------------

struct FabricPass {
  std::string error;
  std::vector<RunResult> results;
  double wall_s = 0;            // worker spawn to last result
  double cpu_s = 0;             // coordinator + worker
  double worker_cpu_s = 0;
  fabric::FabricStats stats;
};

/// One pfi_campaign --workers 1 run: fork a worker on loopback, lease it
/// every cell through run_fabric, reap it.
FabricPass fabric_pass(const std::vector<RunCell>& cells, bool plane) {
  FabricPass p;
  const double cpu0 = cpu_self_s();
  const double child0 = cpu_children_s();
  const std::int64_t t0 = now_ns();
  fabric::Listener listener;
  if (!listener.open("127.0.0.1:0", &p.error)) return p;
  fabric::WorkerOptions wopts;
  wopts.connect = listener.address();
  wopts.ship_stats = plane;
  fabric::LocalWorkerPool pool;
  if (!fabric::spawn_local_workers(wopts, 1, listener.fd(), &pool, &p.error)) return p;

  fabric::FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  fabric::FlightRecorder flight;
  obs::Registry reg;
  std::map<std::string, std::vector<obs::MetricSample>> worker_stats;
  if (plane) {
    fopts.flight = &flight;
    fopts.obs = &reg;
    fopts.worker_stats_out = &worker_stats;
  }
  p.results = fabric::run_fabric(&listener, cells, fopts, &p.stats);
  p.wall_s = secs(now_ns() - t0);
  fabric::reap_local_workers(&pool);
  p.worker_cpu_s = cpu_children_s() - child0;
  p.cpu_s = cpu_self_s() - cpu0 + p.worker_cpu_s;
  return p;
}

/// The fabric layer's taxes, from interleaved triples of full passes over
/// `cells` (in-process, fabric plane off, fabric plane on), rotating which
/// runs first. Each tax is the median of its in-triple differences, not one
/// subtraction across the run.
void fabric_taxes(const std::vector<RunCell>& cells, const std::string& ref_records,
                  std::int64_t deadline, Report& rep, Check& check) {
  const auto n = static_cast<double>(cells.size());
  std::vector<double> coord_us, plane_us, leases, worker_ms;
  int k = 0;
  do {
    double wall[3] = {0, 0, 0};
    for (int j = 0; j < 3; ++j) {
      const int mode = (k + j) % 3;
      if (mode == 0) {
        const std::int64_t t0 = now_ns();
        const auto rs = run_pass(cells, nullptr);
        wall[0] = secs(now_ns() - t0);
        check.expect(records_text(rs) == ref_records, "records repeat across passes");
        continue;
      }
      const FabricPass p = fabric_pass(cells, mode == 2);
      check.expect(p.error.empty(), "fabric pass runs", p.error);
      check.expect(records_text(p.results) == ref_records,
                   "fabric records equal in-process records");
      wall[mode] = p.wall_s;
      worker_ms.push_back(1e3 * p.worker_cpu_s / n);
      leases.push_back(p.stats.leases_granted / n);
    }
    coord_us.push_back(1e6 * (wall[1] - wall[0]) / n);
    plane_us.push_back(1e6 * (wall[2] - wall[1]) / n);
    rep.cells(3 * cells.size(), 0);
    ++k;
  } while (now_ns() < deadline);
  std::string coord_list, plane_list;
  for (std::size_t i = 0; i < coord_us.size(); ++i) {
    coord_list += fmt(" %.1f", coord_us[i]);
    plane_list += fmt(" %.1f", plane_us[i]);
  }
  rep.metric("fabric.coord_us_per_cell", median(coord_us));
  rep.note(fmt("# fabric.coord_us_per_cell = median of %zu in-triple differences "
               "(fabric plane off - in-process) / %d cells:%s",
               coord_us.size(), static_cast<int>(n), coord_list.c_str()));
  rep.metric("fabric.obs_plane_us_per_cell", median(plane_us));
  rep.note(fmt("# fabric.obs_plane_us_per_cell = median of %zu in-triple differences "
               "(plane on - plane off) / %d cells:%s",
               plane_us.size(), static_cast<int>(n), plane_list.c_str()));
  rep.metric("fabric.leases_per_cell", median(leases));
  rep.metric("fabric.worker_cpu_ms_per_cell", median(worker_ms));
}

/// The search and lint layers: one search::explore of the GMP spec (budget
/// 256, batch 16, jobs 1, pruning and journal on), checked against the same
/// search with pruning off, then the engine's mutation operators and the
/// canonical keys timed on the corpus it found.
void search_layers(const Args& a, Report& rep, Check& check) {
  std::string err;
  const auto spec = campaign::load_spec_file(
      a.root + "/scripts/campaign_gmp_omission.spec", &err);
  check.expect(spec.has_value(), "gmp spec loads", err);
  if (!spec) return;
  search::SearchOptions opts;
  opts.budget = 256;
  opts.batch = 16;
  opts.jobs = 1;
  opts.seed = a.seed == kDefaultSeed ? kGoldenSearchSeed : a.seed;
  opts.journal_path = a.artifacts + "/search-journal.jsonl";
  const auto explore = [&](bool prune) {
    opts.prune_equivalent = prune;
    std::remove(opts.journal_path.c_str());  // a warm journal answers from cache
    auto r = search::explore(*spec, opts);
    check.expect(r.error.empty(), "search runs", r.error);
    rep.cells(static_cast<std::uint64_t>(r.executed), static_cast<std::uint64_t>(r.errors));
    return r;
  };
  const auto off = explore(false);
  const std::int64_t t0 = now_ns();
  const auto r = explore(true);
  const double wall = secs(now_ns() - t0);
  check.expect(violation_set(r) == violation_set(off),
               "violations equal the pruning-off run's");
  check_golden_digests(a, r, check);
  rep.note(fmt("# search seed %llu: %d executions in %.3f s, %zu digests, "
               "%zu violations",
               static_cast<unsigned long long>(opts.seed), r.executed, wall,
               r.corpus.size(), r.violations.size()));
  rep.ratio("search.new_digest_ratio",
            Ratio{static_cast<double>(r.corpus.size()), static_cast<double>(r.executed),
                  "digests", "executions"});
  rep.ratio("search.equiv_skip_ratio",
            Ratio{static_cast<double>(r.equiv_skipped),
                  static_cast<double>(r.executed + r.equiv_skipped), "skips",
                  "executions + skips"});

  const auto& entries = r.corpus.entries();
  if (entries.empty()) return;
  const auto pools = search::pools_for(spec->types, spec->protocol);
  search::SplitMix64 rng(opts.seed);
  std::int64_t mutate_ns = 0;
  std::size_t mutants = 0;
  for (; mutants < 4000; ++mutants) {
    const auto& parent = entries[rng.below(entries.size())].schedule;
    const auto& partner = entries[rng.below(entries.size())].schedule;
    const search::MutOp op = search::pick_op(rng, parent.size(), true);
    const std::int64_t m0 = now_ns();
    const auto child = search::mutate(parent, &partner, pools, rng, op);
    mutate_ns += now_ns() - m0;
    check.expect(child.size() <= 64, "mutants stay bounded");
  }
  per(rep, "search.mutate_us_per_mutant", static_cast<double>(mutate_ns), "us",
      static_cast<double>(mutants), "mutants", 1e-3);
  std::int64_t key_ns = 0;
  std::size_t keys = 0;
  for (int round = 0; round < 20; ++round) {
    for (const auto& e : entries) {
      const std::int64_t k0 = now_ns();
      const std::string key = lint::canonical_key(e.schedule, spec->protocol);
      key_ns += now_ns() - k0;
      ++keys;
      check.expect(!key.empty(), "canonical keys are non-empty");
    }
  }
  per(rep, "lint.canonical_key_us_per_schedule", static_cast<double>(key_ns), "us",
      static_cast<double>(keys), "schedules", 1e-3);
}

// ---- workloads --------------------------------------------------------------

void gmp_campaign(const Args& a, Report& rep) {
  Check check{rep, {}};
  std::string err;
  const auto cells = gmp_cells(a, &err);
  check.expect(!cells.empty(), "gmp spec loads", err);
  if (cells.empty()) return;

  if (a.trace) {
    const auto spec = gmp_spec(a, &err);
    rep.metric("campaign.plan_ms", 1e3 * median_time(50, [&] {
      campaign::plan(*spec);
    }));
    // A third of the run prices the fabric layer on these cells, one search
    // prices the search layers, and the rest traces the cells.
    const std::int64_t t0 = now_ns();
    const auto ref = run_pass(cells, nullptr);
    check_gmp_reference(a, ref, check);
    fabric_taxes(cells, records_text(ref), deadline_after(a.seconds / 3.0), rep, check);
    search_layers(a, rep, check);
    LayerAcc acc;
    trace_cells(cells, t0 + static_cast<std::int64_t>(a.seconds * 1e9), acc, check);
    report_layers(rep, acc, a);
    return;
  }

  const auto ref = run_pass(cells, nullptr);  // warm-up and reference
  const std::string ref_records = records_text(ref);
  check_gmp_reference(a, ref, check);
  Loop loop;
  const std::int64_t deadline = deadline_after(a.seconds);
  do {
    const auto rs = run_pass(cells, &loop);
    check.expect(records_text(rs) == ref_records, "records repeat across passes");
    loop.setup_s.push_back(median_time(kSetupReps, [&] { gmp_cells(a, &err); }));
  } while (now_ns() < deadline);
  report_end_to_end(rep, loop);
}

void tcp_suite(const Args& a, Report& rep) {
  Check check{rep, {}};
  std::string err;
  const auto cells = suite_cells(a, &err);
  check.expect(cells.size() == 20, "suites/tcp plans 20 cells", err);
  if (cells.empty()) return;

  if (a.trace) {
    rep.metric("campaign.plan_ms", 1e3 * median_time(50, [&] {
      suite_cells(a, &err);
    }));
    // Parse cost per timeline: every distinct .pdt, parsed from memory.
    std::set<std::string> files;
    for (const RunCell& c : cells) files.insert(c.conform_file);
    std::int64_t parse_ns = 0;
    std::size_t parses = 0;
    for (const std::string& f : files) {
      const std::string text = read_file(f);
      for (int i = 0; i < 200; ++i) {
        std::vector<lint::Diagnostic> diags;
        const std::int64_t t0 = now_ns();
        const auto prog = conformance::parse(text, f, &diags);
        parse_ns += now_ns() - t0;
        ++parses;
        check.expect(prog.has_value(), "timeline parses", f);
      }
    }
    per(rep, "conformance.parse_us_per_timeline", static_cast<double>(parse_ns),
        "us", static_cast<double>(parses), "parses", 1e-3);
    LayerAcc acc;
    trace_cells(cells, deadline_after(a.seconds), acc, check);
    report_layers(rep, acc, a);
    return;
  }

  const std::string golden = read_file(a.root + "/tests/golden/conformance_suite.matrix");
  check.expect(!golden.empty(), "golden conformance matrix readable");
  const auto ref = run_pass(cells, nullptr);
  check.expect(matrix_of(ref) == golden, "step matrix equals the golden matrix");
  Loop loop;
  const std::int64_t deadline = deadline_after(a.seconds);
  do {
    const auto rs = run_pass(cells, &loop);
    check.expect(matrix_of(rs) == golden, "step matrix equals the golden matrix");
    loop.setup_s.push_back(median_time(kSetupReps, [&] { suite_cells(a, &err); }));
  } while (now_ns() < deadline);
  report_end_to_end(rep, loop);
}

}  // namespace

bool run_workload(const Args& args, Report& report) {
  static const std::map<std::string, void (*)(const Args&, Report&)> kWorkloads = {
      {"gmp-campaign", gmp_campaign},
      {"tcp-suite", tcp_suite},
  };
  const auto it = kWorkloads.find(args.workload);
  if (it == kWorkloads.end()) return false;
  it->second(args, report);
  if (args.trace) report.fill_unmeasured();
  return true;
}

}  // namespace perfbench
