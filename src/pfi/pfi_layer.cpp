#include "pfi/pfi_layer.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace pfi::core {

namespace {

using script::Result;

std::optional<std::int64_t> to_int(const std::string& s) {
  std::int64_t v = 0;
  auto r = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (r.ec == std::errc{} && r.ptr == s.data() + s.size()) return v;
  // Accept 0x hex too (message types are often written in hex).
  if (s.size() > 2 && (s[0] == '0') && (s[1] == 'x' || s[1] == 'X')) {
    r = std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
    if (r.ec == std::errc{} && r.ptr == s.data() + s.size()) return v;
  }
  return std::nullopt;
}

std::optional<double> to_double(const std::string& s) {
  double v = 0;
  auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  if (r.ec == std::errc{} && r.ptr == s.data() + s.size()) return v;
  return std::nullopt;
}

std::string to_hex(const xk::Message& msg) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(msg.size() * 2);
  for (std::uint8_t b : msg.bytes()) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

std::optional<xk::Message> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return xk::Message{std::move(bytes)};
}

}  // namespace

PfiLayer::PfiLayer(sim::Scheduler& sched, PfiConfig cfg)
    : Layer("pfi"),
      sched_(sched),
      cfg_(std::move(cfg)),
      rng_(cfg_.rng_seed),
      send_interp_(std::make_unique<script::Interp>()),
      receive_interp_(std::make_unique<script::Interp>()),
      alive_(std::make_shared<bool>(true)) {
  install_commands(*send_interp_, Direction::kDown);
  install_commands(*receive_interp_, Direction::kUp);
}

PfiLayer::~PfiLayer() { *alive_ = false; }

script::Result PfiLayer::run_setup(const std::string& script, int first_line) {
  Result s = send_interp_->eval(script);
  Result r = receive_interp_->eval(script);
  Result out = s.is_error() ? std::move(s) : std::move(r);
  if (out.is_error() && out.line > 0) out.line += first_line - 1;
  return out;
}

void PfiLayer::register_command(const std::string& name,
                                script::Interp::Command fn) {
  send_interp_->register_command(name, fn);
  receive_interp_->register_command(name, std::move(fn));
}

void PfiLayer::push(xk::Message msg) {
  ++stats_.sends_intercepted;
  run_filter(Direction::kDown, std::move(msg));
}

void PfiLayer::pop(xk::Message msg) {
  ++stats_.recvs_intercepted;
  run_filter(Direction::kUp, std::move(msg));
}

std::size_t PfiLayer::held_count(const std::string& queue) const {
  auto it = hold_queues_.find(queue);
  return it == hold_queues_.end() ? 0 : it->second.size();
}

void PfiLayer::set_metrics(obs::Registry* registry) {
  metrics_ = registry;
  m_type_counters_.clear();
  m_last_type_.clear();
  m_last_type_counter_ = nullptr;
  m_msg_bytes_ =
      registry != nullptr ? &registry->histogram("pfi.msg_bytes") : nullptr;
}

void PfiLayer::count_message(const xk::Message& msg) {
  // Per-message cost budget: one histogram observe + one counter inc via the
  // single-entry type cache. Filter-invocation counts need no live counter —
  // they are already in PfiStats (sends/recvs_intercepted), exported into
  // the registry at collect time.
  if (metrics_ == nullptr) return;
  PFI_OBS_OBSERVE(m_msg_bytes_, msg.size());
  std::string type = type_of(msg);
  if (m_last_type_counter_ == nullptr || type != m_last_type_) {
    auto [it, fresh] = m_type_counters_.try_emplace(std::move(type));
    if (fresh) {
      it->second = &metrics_->counter("pfi.msg_type." + it->first);
    }
    m_last_type_ = it->first;
    m_last_type_counter_ = it->second;
  }
  PFI_OBS_INC(m_last_type_counter_);
}

void PfiLayer::run_filter(Direction dir, xk::Message msg) {
  count_message(msg);
  MsgCtx ctx;
  ctx.msg = std::move(msg);
  ctx.dir = dir;

  const std::string& text =
      dir == Direction::kDown ? send_script_ : receive_script_;
  if (!text.empty()) {
    current_ = &ctx;
    Result r = interp_for(dir).eval(text);
    current_ = nullptr;
    if (r.is_error()) {
      ++stats_.script_errors;
      // Report the file-absolute line of the failing top-level command
      // ("line 12: invalid command name ..."), offset by where this
      // section sits in its source file.
      last_error_ = r.value;
      if (r.line > 0) {
        const int offset =
            dir == Direction::kDown ? send_script_line_ : receive_script_line_;
        last_error_ = "line " + std::to_string(r.line + offset - 1) + ": " +
                      r.value;
      }
      if (cfg_.trace != nullptr) {
        cfg_.trace->add(sched_.now(), cfg_.node_name, "error", "pfi-script",
                        last_error_);
      }
    }
  }

  if (ctx.held) return;  // already parked in a hold queue by xHold
  if (ctx.dropped) {
    ++stats_.dropped;
    return;
  }
  if (ctx.corrupted) ++stats_.corrupted;
  const int copies = 1 + ctx.duplicates;
  stats_.duplicated += static_cast<std::uint64_t>(ctx.duplicates);
  if (ctx.delay > 0) ++stats_.delayed;
  for (int i = 0; i < copies; ++i) {
    // Duplicates get copies; the last forwarded message takes ctx.msg itself.
    xk::Message m;
    if (i + 1 < copies) {
      m = ctx.msg;
    } else {
      m = std::move(ctx.msg);
    }
    if (ctx.delay > 0) {
      sched_.schedule(ctx.delay,
                      [this, alive = alive_, dir, m = std::move(m)]() mutable {
                        if (*alive) forward(dir, std::move(m));
                      });
    } else {
      forward(dir, std::move(m));
    }
  }
}

void PfiLayer::forward(Direction dir, xk::Message msg) {
  if (dir == Direction::kDown) {
    send_down(std::move(msg));
  } else {
    send_up(std::move(msg));
  }
}

std::string PfiLayer::type_of(const xk::Message& msg) const {
  if (cfg_.stub == nullptr) return "raw";
  return cfg_.stub->type_of(msg);
}

void PfiLayer::trace_packet(const MsgCtx& ctx, const std::string& verb,
                            const std::string& note) const {
  if (cfg_.trace == nullptr) return;
  std::string detail =
      cfg_.stub != nullptr ? cfg_.stub->summary(ctx.msg) : ctx.msg.printable();
  if (!note.empty()) detail += " | " + note;
  cfg_.trace->add(sched_.now(), cfg_.node_name, verb, type_of(ctx.msg),
                  detail);
}

// ---------------------------------------------------------------------------
// Script command library
// ---------------------------------------------------------------------------

void PfiLayer::install_commands(script::Interp& interp, Direction dir) {
  using Args = std::vector<std::string>;
  const char* dir_name = dir == Direction::kDown ? "send" : "recv";

  auto need_msg = [this]() -> MsgCtx* { return current_; };

  // The paper's scripts pass a `cur_msg` handle ("msg_type cur_msg"); there
  // is exactly one current message per filter run, so the handle argument is
  // accepted and ignored.

  interp.register_command("msg_type", [this, need_msg](script::Interp&,
                                                       const Args&) -> Result {
    MsgCtx* ctx = need_msg();
    if (ctx == nullptr) return Result::error("msg_type: no current message");
    return Result::ok(type_of(ctx->msg));
  });

  interp.register_command("msg_len", [need_msg](script::Interp&,
                                                const Args&) -> Result {
    MsgCtx* ctx = need_msg();
    if (ctx == nullptr) return Result::error("msg_len: no current message");
    return Result::ok(std::to_string(ctx->msg.size()));
  });

  interp.register_command(
      "msg_byte", [need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) return Result::error("msg_byte: no current message");
        if (a.size() != 2) return Result::error("usage: msg_byte index");
        auto i = to_int(a[1]);
        if (!i || *i < 0) return Result::error("msg_byte: bad index");
        return Result::ok(
            std::to_string(ctx->msg.byte_at(static_cast<std::size_t>(*i))));
      });

  interp.register_command(
      "msg_set_byte", [need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) {
          return Result::error("msg_set_byte: no current message");
        }
        if (a.size() != 3) return Result::error("usage: msg_set_byte index value");
        auto i = to_int(a[1]);
        auto v = to_int(a[2]);
        if (!i || !v || *i < 0) return Result::error("msg_set_byte: bad args");
        ctx->msg.set_byte(static_cast<std::size_t>(*i),
                          static_cast<std::uint8_t>(*v));
        ctx->corrupted = true;
        return Result::ok();
      });

  interp.register_command(
      "msg_truncate", [need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) {
          return Result::error("msg_truncate: no current message");
        }
        if (a.size() != 2) return Result::error("usage: msg_truncate length");
        auto n = to_int(a[1]);
        if (!n || *n < 0) return Result::error("msg_truncate: bad length");
        ctx->msg.truncate(static_cast<std::size_t>(*n));
        ctx->corrupted = true;
        return Result::ok();
      });

  interp.register_command(
      "msg_field", [this, need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) return Result::error("msg_field: no current message");
        if (a.size() != 2) return Result::error("usage: msg_field name");
        if (cfg_.stub == nullptr) return Result::error("msg_field: no stub");
        auto v = cfg_.stub->field(ctx->msg, a[1]);
        if (!v) return Result::error("msg_field: no field \"" + a[1] + "\"");
        return Result::ok(std::to_string(*v));
      });

  interp.register_command(
      "msg_set_field",
      [this, need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) {
          return Result::error("msg_set_field: no current message");
        }
        if (a.size() != 3) return Result::error("usage: msg_set_field name value");
        if (cfg_.stub == nullptr) return Result::error("msg_set_field: no stub");
        auto v = to_int(a[2]);
        if (!v) return Result::error("msg_set_field: bad value");
        if (!cfg_.stub->set_field(ctx->msg, a[1], *v)) {
          return Result::error("msg_set_field: can't set \"" + a[1] + "\"");
        }
        ctx->corrupted = true;
        return Result::ok();
      });

  interp.register_command("msg_hex", [need_msg](script::Interp&,
                                                const Args&) -> Result {
    MsgCtx* ctx = need_msg();
    if (ctx == nullptr) return Result::error("msg_hex: no current message");
    return Result::ok(to_hex(ctx->msg));
  });

  interp.register_command(
      "msg_log",
      [this, need_msg, dir_name](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) return Result::error("msg_log: no current message");
        std::string note;
        // Skip a `cur_msg` handle argument; anything else is a note.
        for (std::size_t i = 1; i < a.size(); ++i) {
          if (a[i] == "cur_msg") continue;
          if (!note.empty()) note += ' ';
          note += a[i];
        }
        trace_packet(*ctx, dir_name, note);
        return Result::ok();
      });

  // --- manipulation ---------------------------------------------------------

  interp.register_command("xDrop", [need_msg](script::Interp&,
                                              const Args&) -> Result {
    MsgCtx* ctx = need_msg();
    if (ctx == nullptr) return Result::error("xDrop: no current message");
    ctx->dropped = true;
    return Result::ok();
  });

  interp.register_command(
      "xDelay", [need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) return Result::error("xDelay: no current message");
        if (a.size() != 2 && !(a.size() == 3 && a[1] == "cur_msg")) {
          return Result::error("usage: xDelay ?cur_msg? milliseconds");
        }
        auto ms = to_int(a.back());
        if (!ms || *ms < 0) return Result::error("xDelay: bad delay");
        ctx->delay = sim::msec(*ms);
        return Result::ok();
      });

  interp.register_command(
      "xDuplicate", [need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) return Result::error("xDuplicate: no current message");
        std::int64_t n = 1;
        if (a.size() == 2) {
          auto v = to_int(a[1]);
          if (!v || *v < 0) return Result::error("xDuplicate: bad count");
          n = *v;
        }
        ctx->duplicates = static_cast<int>(n);
        return Result::ok();
      });

  interp.register_command(
      "xHold", [this, need_msg](script::Interp&, const Args& a) -> Result {
        MsgCtx* ctx = need_msg();
        if (ctx == nullptr) return Result::error("xHold: no current message");
        if (a.size() != 2) return Result::error("usage: xHold queueName");
        if (ctx->held) return Result::error("xHold: message already held");
        // Park immediately so xHeldCount in the same filter run sees it —
        // that is what makes "hold until N accumulate, then release" work.
        hold_queues_[a[1]].push_back(HeldMsg{std::move(ctx->msg), ctx->dir});
        ctx->held = true;
        ++stats_.held;
        return Result::ok();
      });

  auto release = [this](const std::string& queue, bool reversed,
                        std::int64_t count) {
    auto it = hold_queues_.find(queue);
    if (it == hold_queues_.end()) return;
    auto& q = it->second;
    std::vector<HeldMsg> batch;
    while (!q.empty() && (count < 0 ||
                          static_cast<std::int64_t>(batch.size()) < count)) {
      if (reversed) {
        batch.push_back(std::move(q.back()));
        q.pop_back();
      } else {
        batch.push_back(std::move(q.front()));
        q.pop_front();
      }
    }
    for (auto& held : batch) {
      ++stats_.released;
      forward(held.dir, std::move(held.msg));
    }
  };

  interp.register_command(
      "xRelease", [release](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2 && a.size() != 3) {
          return Result::error("usage: xRelease queueName ?count?");
        }
        std::int64_t count = -1;
        if (a.size() == 3) {
          auto v = to_int(a[2]);
          if (!v) return Result::error("xRelease: bad count");
          count = *v;
        }
        release(a[1], false, count);
        return Result::ok();
      });

  interp.register_command(
      "xReleaseReversed", [release](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2) return Result::error("usage: xReleaseReversed queueName");
        release(a[1], true, -1);
        return Result::ok();
      });

  interp.register_command(
      "xHeldCount", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2) return Result::error("usage: xHeldCount queueName");
        return Result::ok(std::to_string(held_count(a[1])));
      });

  // Kill the *hosting* process, not the simulated node — a fault-injection
  // fixture for testing that a crashing testbed is contained by the
  // campaign sandbox (--isolate). Never use outside sandboxed runs.
  interp.register_command(
      "xCrashProcess", [](script::Interp&, const Args& a) -> Result {
        if (a.size() != 1) return Result::error("usage: xCrashProcess");
        std::fflush(nullptr);  // don't lose buffered trace output
        std::abort();          // SIGABRT; unreachable return
      });

  // --- injection --------------------------------------------------------------

  auto inject = [this](Direction d, xk::Message msg, sim::Duration delay) {
    ++stats_.injected;
    if (cfg_.trace != nullptr) {
      std::string detail = cfg_.stub != nullptr ? cfg_.stub->summary(msg)
                                                : msg.printable();
      cfg_.trace->add(sched_.now(), cfg_.node_name, "inject", type_of(msg),
                      detail);
    }
    if (delay > 0) {
      sched_.schedule(delay, [this, alive = alive_, d, m = std::move(msg)]() mutable {
        if (*alive) forward(d, std::move(m));
      });
    } else {
      forward(d, std::move(msg));
    }
  };

  interp.register_command(
      "xInject", [this, inject](script::Interp&, const Args& a) -> Result {
        // xInject up|down key value ?key value ...?
        if (a.size() < 2 || (a.size() % 2) != 0) {
          return Result::error("usage: xInject up|down ?key value ...?");
        }
        if (a[1] != "up" && a[1] != "down") {
          return Result::error("xInject: direction must be up or down");
        }
        if (cfg_.stub == nullptr) return Result::error("xInject: no stub");
        std::map<std::string, std::string> params;
        for (std::size_t i = 2; i + 1 < a.size(); i += 2) {
          params[a[i]] = a[i + 1];
        }
        auto msg = cfg_.stub->generate(params);
        if (!msg) return Result::error("xInject: stub can't generate message");
        inject(a[1] == "down" ? Direction::kDown : Direction::kUp,
               std::move(*msg), 0);
        return Result::ok();
      });

  interp.register_command(
      "xInjectHex", [inject](script::Interp&, const Args& a) -> Result {
        if (a.size() != 3 && a.size() != 4) {
          return Result::error("usage: xInjectHex up|down hexBytes ?delayMs?");
        }
        if (a[1] != "up" && a[1] != "down") {
          return Result::error("xInjectHex: direction must be up or down");
        }
        auto msg = from_hex(a[2]);
        if (!msg) return Result::error("xInjectHex: bad hex string");
        sim::Duration delay = 0;
        if (a.size() == 4) {
          auto ms = to_int(a[3]);
          if (!ms || *ms < 0) return Result::error("xInjectHex: bad delay");
          delay = sim::msec(*ms);
        }
        inject(a[1] == "down" ? Direction::kDown : Direction::kUp,
               std::move(*msg), delay);
        return Result::ok();
      });

  // --- clocks, distributions, misc --------------------------------------------

  interp.register_command("now_us", [this](script::Interp&, const Args&) {
    return Result::ok(std::to_string(sched_.now()));
  });
  interp.register_command("now_ms", [this](script::Interp&, const Args&) {
    return Result::ok(std::to_string(sched_.now() / sim::kMillisecond));
  });
  interp.register_command("now_s", [this](script::Interp&, const Args&) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", sim::to_seconds(sched_.now()));
    return Result::ok(buf);
  });

  interp.register_command(
      "dst_normal", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 3) return Result::error("usage: dst_normal mean variance");
        auto mean = to_double(a[1]);
        auto var = to_double(a[2]);
        if (!mean || !var) return Result::error("dst_normal: bad args");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", rng_.normal(*mean, *var));
        return Result::ok(buf);
      });

  interp.register_command(
      "dst_uniform", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 3) return Result::error("usage: dst_uniform lo hi");
        auto lo = to_double(a[1]);
        auto hi = to_double(a[2]);
        if (!lo || !hi) return Result::error("dst_uniform: bad args");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", rng_.uniform(*lo, *hi));
        return Result::ok(buf);
      });

  interp.register_command(
      "dst_exponential", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2) return Result::error("usage: dst_exponential mean");
        auto mean = to_double(a[1]);
        if (!mean) return Result::error("dst_exponential: bad args");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", rng_.exponential(*mean));
        return Result::ok(buf);
      });

  interp.register_command(
      "dst_bernoulli", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2) return Result::error("usage: dst_bernoulli p");
        auto p = to_double(a[1]);
        if (!p) return Result::error("dst_bernoulli: bad args");
        return Result::ok(rng_.bernoulli(*p) ? "1" : "0");
      });

  // --- cross-interpreter and cross-node state ----------------------------------

  interp.register_command(
      "peer_set", [this, dir](script::Interp&, const Args& a) -> Result {
        if (a.size() != 3) return Result::error("usage: peer_set name value");
        other_interp(dir).set_global(a[1], a[2]);
        return Result::ok();
      });

  interp.register_command(
      "peer_get", [this, dir](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2 && a.size() != 3) {
          return Result::error("usage: peer_get name ?default?");
        }
        auto v = other_interp(dir).get_global(a[1]);
        if (v) return Result::ok(*v);
        if (a.size() == 3) return Result::ok(a[2]);
        return Result::error("peer_get: no such variable \"" + a[1] + "\"");
      });

  interp.register_command(
      "sync_set", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 3) return Result::error("usage: sync_set name value");
        if (cfg_.sync == nullptr) return Result::error("sync_set: no sync bus");
        cfg_.sync->set(a[1], a[2]);
        return Result::ok();
      });

  interp.register_command(
      "sync_get", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2 && a.size() != 3) {
          return Result::error("usage: sync_get name ?default?");
        }
        if (cfg_.sync == nullptr) return Result::error("sync_get: no sync bus");
        auto v = cfg_.sync->get(a[1]);
        if (v) return Result::ok(*v);
        if (a.size() == 3) return Result::ok(a[2]);
        return Result::error("sync_get: no such entry \"" + a[1] + "\"");
      });

  interp.register_command(
      "sync_incr", [this](script::Interp&, const Args& a) -> Result {
        if (a.size() != 2 && a.size() != 3) {
          return Result::error("usage: sync_incr name ?by?");
        }
        if (cfg_.sync == nullptr) return Result::error("sync_incr: no sync bus");
        std::int64_t by = 1;
        if (a.size() == 3) {
          auto v = to_int(a[2]);
          if (!v) return Result::error("sync_incr: bad increment");
          by = *v;
        }
        return Result::ok(std::to_string(cfg_.sync->incr(a[1], by)));
      });

  interp.register_command(
      "after", [this, dir](script::Interp&, const Args& a) -> Result {
        if (a.size() != 3) return Result::error("usage: after milliseconds script");
        auto ms = to_int(a[1]);
        if (!ms || *ms < 0) return Result::error("after: bad delay");
        sched_.schedule(sim::msec(*ms),
                        [this, alive = alive_, dir, body = a[2]] {
                          if (!*alive) return;
                          Result r = interp_for(dir).eval(body);
                          if (r.is_error()) {
                            ++stats_.script_errors;
                            last_error_ = r.value;
                          }
                        });
        return Result::ok();
      });

  interp.register_command(
      "trace_note", [this](script::Interp&, const Args& a) -> Result {
        std::string note;
        for (std::size_t i = 1; i < a.size(); ++i) {
          if (!note.empty()) note += ' ';
          note += a[i];
        }
        if (cfg_.trace != nullptr) {
          cfg_.trace->add(sched_.now(), cfg_.node_name, "note", "pfi-note",
                          note);
        }
        return Result::ok();
      });

  interp.register_command("node_name", [this](script::Interp&, const Args&) {
    return Result::ok(cfg_.node_name);
  });

  interp.register_command("filter_dir", [dir_name](script::Interp&,
                                                   const Args&) {
    return Result::ok(dir_name);
  });
}

}  // namespace pfi::core
