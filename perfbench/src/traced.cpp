#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "conformance/conformance.hpp"
#include "experiments/gmp_testbed.hpp"
#include "experiments/oracles.hpp"
#include "experiments/tcp_testbed.hpp"
#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "pfi/driver.hpp"
#include "spec/tcp_spec.hpp"
#include "tcp/profile.hpp"

namespace perfbench {

namespace {

using namespace pfi;

constexpr std::size_t kMaxCaptured = 4096;  // messages kept per cell

std::atomic<std::size_t> g_keep{0};  // keeps the timed stub calls alive

/// Everything the probes of one cell share.
struct Ctx {
  SpanRecorder rec;
  std::vector<Sink> sinks;
  std::vector<xk::Message> captured;  // messages entering the scripted PFI
  std::uint32_t capture_sink = 0;

  std::uint32_t sink(Sink s) {
    sinks.push_back(std::move(s));
    return static_cast<std::uint32_t>(sinks.size() - 1);
  }
};

/// Pass-through layer: forwards every push/pop unchanged inside a span.
/// Probes next to the scripted PFI layer also keep a copy of each message
/// entering it (for the stub timing), inside a span of its own so the copy
/// is not charged to any protocol layer.
class Probe final : public xk::Layer {
 public:
  Probe(Ctx& ctx, std::uint32_t push_sink, std::uint32_t pop_sink,
        bool capture_push, bool capture_pop)
      : Layer("probe"),
        ctx_(ctx),
        push_sink_(push_sink),
        pop_sink_(pop_sink),
        capture_push_(capture_push),
        capture_pop_(capture_pop) {}

  void push(xk::Message msg) override {
    if (capture_push_) capture(msg);
    const auto id = ctx_.rec.open(push_sink_);
    send_down(std::move(msg));
    ctx_.rec.close(id);
  }

  void pop(xk::Message msg) override {
    if (capture_pop_) capture(msg);
    const auto id = ctx_.rec.open(pop_sink_);
    send_up(std::move(msg));
    ctx_.rec.close(id);
  }

 private:
  void capture(const xk::Message& msg) {
    if (ctx_.captured.size() >= kMaxCaptured) return;
    const auto id = ctx_.rec.open(ctx_.capture_sink);
    ctx_.captured.push_back(msg);
    ctx_.rec.close(id);
  }

  Ctx& ctx_;
  std::uint32_t push_sink_;
  std::uint32_t pop_sink_;
  bool capture_push_;
  bool capture_pop_;
};

Layer layer_of(const std::string& name, bool scripted) {
  if (name == "gmd" || name == "rel") return Layer::kGmp;
  if (name == "pfi") return scripted ? Layer::kPfi : Layer::kPfiIdle;
  if (name == "udp" || name == "ip" || name == "netdev") return Layer::kNet;
  if (name == "tcp") return Layer::kTcp;
  if (name == "spec-observer") return Layer::kSpec;
  return Layer::kOther;
}

/// Splice a probe between every two adjacent layers of `stack`. A probe
/// between A (above) and B (below) charges pushes to B and pops to A.
void splice_probes(xk::Stack& stack, const std::string& node, bool scripted,
                   Ctx& ctx) {
  std::vector<xk::Layer*> chain;
  for (xk::Layer* l = stack.top(); l != nullptr; l = l->below()) {
    chain.push_back(l);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    xk::Layer& above = *chain[i];
    xk::Layer& below = *chain[i + 1];
    const bool frame = below.name() == "netdev";
    const bool segment = above.name() == "tcp";
    const auto push_sink =
        ctx.sink({node + "/" + below.name() + ".push",
                  layer_of(below.name(), scripted), frame, segment});
    const auto pop_sink =
        ctx.sink({node + "/" + above.name() + ".pop",
                  layer_of(above.name(), scripted), frame, segment});
    stack.insert_below(
        above, std::make_unique<Probe>(ctx, push_sink, pop_sink,
                                       scripted && below.name() == "pfi",
                                       scripted && above.name() == "pfi"));
  }
}

/// Runs the scheduler, timing run_until and the probe spans inside it.
struct Clocked {
  sim::Scheduler& sched;
  Ctx& ctx;
  TracedCell& out;

  void run_until(sim::TimePoint deadline) {
    const std::size_t first = ctx.rec.size();
    const std::int64_t t0 = now_ns();
    sched.run_until(deadline);
    out.sched_ns += now_ns() - t0;
    out.sched_covered_ns += root_covered_ns(ctx.rec.spans(), first);
  }
};

void install(core::PfiLayer& pfi, const core::failure::Scripts& s) {
  if (!s.setup.empty()) pfi.run_setup(s.setup);
  pfi.set_send_script(s.send);
  pfi.set_receive_script(s.receive);
}

std::vector<std::pair<std::string, std::uint64_t>> pfi_actions(
    const core::PfiStats& st) {
  return {{"dropped", st.dropped},       {"delayed", st.delayed},
          {"duplicated", st.duplicated}, {"corrupted", st.corrupted},
          {"injected", st.injected},     {"held", st.held},
          {"released", st.released}};
}

tcp::TcpProfile vendor_profile(const std::string& name) {
  if (name == "solaris") return tcp::profiles::solaris_2_3();
  if (name == "aix") return tcp::profiles::aix_3_2_3();
  if (name == "next") return tcp::profiles::next_mach();
  if (name == "reference") return tcp::profiles::xkernel_reference();
  return tcp::profiles::sunos_4_1_3();
}

/// Close out a cell: coverage digest (timed) and the stub timing over the
/// messages captured at the scripted PFI layer.
void finish(Ctx& ctx, const trace::TraceLog& trace, const obs::Registry& reg,
            const core::PfiLayer& pfi, TracedCell& out) {
  std::int64_t t0 = now_ns();
  out.digest = obs::compute_coverage(trace, reg, pfi_actions(pfi.stats())).digest;
  out.coverage_ns = now_ns() - t0;

  std::size_t sink = 0;
  t0 = now_ns();
  for (const xk::Message& m : ctx.captured) sink += pfi.stub()->type_of(m).size();
  out.stub_ns = now_ns() - t0;
  out.stub_calls = ctx.captured.size();
  g_keep.fetch_add(sink, std::memory_order_relaxed);
}

void run_gmp(const campaign::RunCell& cell,
             const core::failure::Scripts& scripts, Ctx& ctx,
             TracedCell& out) {
  obs::Registry reg;
  std::vector<net::NodeId> ids;
  for (int i = 1; i <= cell.nodes; ++i) ids.push_back(static_cast<net::NodeId>(i));
  experiments::GmpTestbed tb{
      ids, cell.buggy ? gmp::GmpBugs::all() : gmp::GmpBugs::none(),
      cell.seed * 1000};
  tb.network.reseed(cell.seed);
  tb.network.set_metrics(&reg);
  tb.network.default_link().jitter = cell.jitter;
  const auto target_id = static_cast<net::NodeId>(cell.target_node);
  core::PfiLayer& target = tb.pfi(target_id);
  target.set_metrics(&reg);
  // Nodes join the network when first touched, so each stack gets its
  // probes just before its daemon starts, as late as run_cell builds it.
  const auto probe_node = [&](net::NodeId id) {
    splice_probes(tb.node(id).stack, "gmd-" + std::to_string(id),
                  id == target_id, ctx);
  };
  probe_node(target_id);
  Clocked clock{tb.sched, ctx, out};

  // Same staggered start and warmup install as campaign::run_cell.
  constexpr sim::Duration kStagger = sim::sec(1);
  bool installed = false;
  const auto install_at_warmup = [&] {
    clock.run_until(cell.warmup);
    install(target, scripts);
    installed = true;
  };
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const sim::Duration at = static_cast<sim::Duration>(i) * kStagger;
    if (!installed && cell.warmup <= at) install_at_warmup();
    clock.run_until(at);
    if (ids[i] != target_id) probe_node(ids[i]);
    tb.start(ids[i]);
  }
  if (!installed) install_at_warmup();
  clock.run_until(cell.duration);

  experiments::oracles::Verdict v;
  if (cell.oracle == "liveness") {
    v = experiments::oracles::gmp_liveness(tb);
  } else if (cell.oracle == "quiet") {
    v = experiments::oracles::gmp_quiet(tb);
  } else {
    v = experiments::oracles::gmp_agreement(tb);
  }
  out.pass = v.pass;
  out.events = tb.sched.stats().events_dispatched;
  out.trace_records = tb.trace.records().size();
  finish(ctx, tb.trace, reg, target, out);
}

void run_tcp(const campaign::RunCell& cell, const std::string& scenario,
             const conformance::Program* prog,
             const core::failure::Scripts& scripts, Ctx& ctx,
             TracedCell& out) {
  obs::Registry reg;
  experiments::TcpTestbed tb{vendor_profile(cell.vendor)};
  tb.network.reseed(cell.seed);
  tb.network.set_metrics(&reg);
  tb.network.default_link().jitter = cell.jitter;
  tb.pfi->set_metrics(&reg);
  auto checker = std::make_shared<spec::TcpSpecChecker>(tb.sched);
  tb.vendor_stack.insert_below(
      *tb.vendor_tcp, std::make_unique<spec::SpecObserverLayer>(checker));
  splice_probes(tb.vendor_stack, "vendor", false, ctx);
  splice_probes(tb.xk_stack, "xkernel", true, ctx);
  install(*tb.pfi, scripts);
  Clocked clock{tb.sched, ctx, out};

  // Same driver shapes as campaign::run_cell.
  tcp::TcpConnection* conn = tb.connect();
  core::TcpDriver driver{tb.sched, *conn};
  if (scenario == "bulk") {
    driver.start(sim::msec(100), 1024, 0);
  } else if (scenario == "echo") {
    driver.on_chunk = [&tb](std::size_t) {
      if (tb.accepted() != nullptr) tb.accepted()->send(std::string(128, 'e'));
    };
    driver.start(sim::msec(500), 128, 0);
  } else if (scenario == "zero-window") {
    clock.run_until(std::min<sim::Duration>(sim::msec(100), cell.duration));
    if (tb.accepted() != nullptr) tb.accepted()->set_auto_drain(false);
    driver.start(sim::msec(100), 512, 20);
  } else if (scenario == "keepalive") {
    driver.start(sim::msec(100), 128, 3);
    tb.sched.schedule(sim::sec(1), [conn] { conn->set_keepalive(true); });
  } else {
    driver.start(sim::msec(500), 512, 0);
  }
  clock.run_until(cell.duration);

  if (cell.oracle == "alive") {
    out.pass = experiments::oracles::tcp_alive(*conn).pass;
  } else if (cell.oracle == "conformance") {
    const std::int64_t t0 = now_ns();
    out.pass = conformance::evaluate(*prog, tb.trace, cell.duration).pass;
    out.evaluate_ns = now_ns() - t0;
  } else {
    out.pass = experiments::oracles::tcp_spec(*checker).pass;
  }
  out.events = tb.sched.stats().events_dispatched;
  out.trace_records = tb.trace.records().size();
  finish(ctx, tb.trace, reg, *tb.pfi, out);
}

}  // namespace

TracedCell run_traced(const campaign::RunCell& cell) {
  TracedCell out;
  Ctx ctx;
  ctx.capture_sink = ctx.sink({"probe/capture", Layer::kProbe, false, false});
  const std::int64_t t0 = now_ns();

  std::optional<conformance::Program> prog;
  core::failure::Scripts scripts;
  if (!cell.conform_file.empty()) {
    std::vector<lint::Diagnostic> diags;
    prog = conformance::load_file(cell.conform_file, &diags);
    if (!prog) {
      out.error = "cannot load " + cell.conform_file;
      return out;
    }
    const std::int64_t c0 = now_ns();
    scripts = conformance::compile(*prog);
    out.compile_ns = now_ns() - c0;
  } else if (cell.script_file.empty()) {
    scripts = cell.schedule.compile();
  } else {
    out.error = "literal script files are not traced";
    return out;
  }

  if (cell.protocol == "gmp") {
    run_gmp(cell, scripts, ctx, out);
  } else if (cell.protocol == "tcp") {
    const std::string scenario = !cell.scenario.empty() ? cell.scenario
                                 : prog ? prog->scenario
                                        : std::string{};
    run_tcp(cell, scenario, prog ? &*prog : nullptr, scripts, ctx, out);
  } else {
    out.error = "protocol " + cell.protocol + " is not traced";
    return out;
  }
  out.wall_ns = now_ns() - t0;
  out.sinks = std::move(ctx.sinks);
  out.spans = ctx.rec.spans();
  return out;
}

}  // namespace perfbench
