// PFI layer tests: filtering, manipulation, injection, cross-interpreter
// state, sync bus, distributions, deferred scripts, and fail-open behaviour.
#include <gtest/gtest.h>

#include "pfi/pfi_layer.hpp"
#include "pfi/stub.hpp"
#include "sim/scheduler.hpp"
#include "xk/layer.hpp"

namespace pfi::core {
namespace {

/// app / PFI / loopback harness: everything the app sends comes back up
/// through the PFI receive filter.
struct Harness {
  sim::Scheduler sched;
  trace::TraceLog trace;
  std::shared_ptr<SyncBus> sync = std::make_shared<SyncBus>();
  xk::Stack stack;
  xk::AppLayer* app;
  PfiLayer* pfi;

  struct Loopback : xk::Layer {
    Loopback() : Layer("loop") {}
    void push(xk::Message m) override { send_up(std::move(m)); }
    void pop(xk::Message m) override { send_up(std::move(m)); }
  };

  Harness() {
    app = static_cast<xk::AppLayer*>(
        stack.add(std::make_unique<xk::AppLayer>()));
    PfiConfig cfg;
    cfg.node_name = "testnode";
    cfg.trace = &trace;
    cfg.stub = std::make_shared<ToyStub>();
    cfg.sync = sync;
    pfi = static_cast<PfiLayer*>(
        stack.add(std::make_unique<PfiLayer>(sched, cfg)));
    stack.add(std::make_unique<Loopback>());
  }

  void send(std::uint8_t type, std::uint32_t id, std::string_view pl = {}) {
    app->send(ToyStub::make(type, id, pl));
  }
  std::size_t delivered() {
    sched.run();
    return app->received().size();
  }
};

TEST(PfiLayer, PassThroughWithoutScripts) {
  Harness h;
  h.send(ToyStub::kData, 1, "hello");
  EXPECT_EQ(h.delivered(), 1u);
  EXPECT_EQ(h.pfi->stats().sends_intercepted, 1u);
  EXPECT_EQ(h.pfi->stats().recvs_intercepted, 1u);
}

TEST(PfiLayer, PaperDropAckScript) {
  Harness h;
  h.pfi->run_setup("set ACK 0x1\nset NACK 0x2\nset GACK 0x4");
  h.pfi->set_receive_script(R"tcl(
set type [msg_type cur_msg]
if {$type eq "ack"} { xDrop cur_msg }
)tcl");
  h.send(ToyStub::kAck, 1);
  h.send(ToyStub::kData, 2);
  h.send(ToyStub::kAck, 3);
  EXPECT_EQ(h.delivered(), 1u);
  EXPECT_EQ(h.pfi->stats().dropped, 2u);
}

TEST(PfiLayer, SendFilterIndependentOfReceiveFilter) {
  Harness h;
  h.pfi->set_send_script("xDrop cur_msg");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 0u);
  // Dropped on the way down: the receive side never saw it.
  EXPECT_EQ(h.pfi->stats().recvs_intercepted, 0u);
}

TEST(PfiLayer, DelayHoldsMessage) {
  Harness h;
  h.pfi->set_send_script("xDelay cur_msg 500");
  h.send(ToyStub::kData, 1);
  h.sched.run_until(sim::msec(100));
  EXPECT_TRUE(h.app->received().empty());
  h.sched.run_until(sim::msec(600));
  EXPECT_EQ(h.app->received().size(), 1u);
  EXPECT_EQ(h.pfi->stats().delayed, 1u);
}

TEST(PfiLayer, DelayCausesReordering) {
  Harness h;
  h.pfi->run_setup("set n 0");
  h.pfi->set_send_script(R"tcl(
incr n
if {$n == 1} { xDelay cur_msg 1000 }
)tcl");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 2u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 2);
  EXPECT_EQ(stub.field(h.app->received()[1], "id"), 1);
}

TEST(PfiLayer, DuplicateProducesCopies) {
  Harness h;
  h.pfi->set_send_script("xDuplicate 2");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 3u);
  EXPECT_EQ(h.pfi->stats().duplicated, 2u);
}

TEST(PfiLayer, CorruptionViaSetByte) {
  Harness h;
  h.pfi->set_send_script("msg_set_byte 0 0x2");  // ack -> nack
  h.send(ToyStub::kAck, 1);
  EXPECT_EQ(h.delivered(), 1u);
  ToyStub stub;
  EXPECT_EQ(stub.type_of(h.app->received()[0]), "nack");
  EXPECT_EQ(h.pfi->stats().corrupted, 1u);
}

TEST(PfiLayer, CorruptionViaSetField) {
  Harness h;
  h.pfi->set_send_script("msg_set_field id 999");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 1u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 999);
}

TEST(PfiLayer, TruncateShortens) {
  Harness h;
  h.pfi->set_send_script("msg_truncate 5");  // header only
  h.send(ToyStub::kData, 1, "payload");
  EXPECT_EQ(h.delivered(), 1u);
  EXPECT_EQ(h.app->received()[0].size(), 5u);
}

TEST(PfiLayer, HoldAndReleaseFifo) {
  Harness h;
  h.pfi->set_send_script(R"tcl(
set t [msg_type cur_msg]
if {$t eq "data"} { xHold q }
)tcl");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.sched.run();
  EXPECT_TRUE(h.app->received().empty());
  EXPECT_EQ(h.pfi->held_count("q"), 2u);
  h.pfi->send_interp().eval("xRelease q");
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 2u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 1);
  EXPECT_EQ(stub.field(h.app->received()[1], "id"), 2);
}

TEST(PfiLayer, ReleaseReversedReorders) {
  Harness h;
  h.pfi->set_send_script(R"tcl(
xHold q
if {[xHeldCount q] >= 3} { xReleaseReversed q }
)tcl");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.send(ToyStub::kData, 3);
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 3u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 3);
  EXPECT_EQ(stub.field(h.app->received()[1], "id"), 2);
  EXPECT_EQ(stub.field(h.app->received()[2], "id"), 1);
}

TEST(PfiLayer, ReleaseWithCount) {
  Harness h;
  h.pfi->set_send_script("xHold q");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.send(ToyStub::kData, 3);
  h.sched.run();
  h.pfi->send_interp().eval("xRelease q 2");
  h.sched.run();
  EXPECT_EQ(h.app->received().size(), 2u);
  EXPECT_EQ(h.pfi->held_count("q"), 1u);
}

TEST(PfiLayer, InjectViaStub) {
  Harness h;
  h.pfi->receive_interp().eval("xInject up type gack id 77");
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 1u);
  ToyStub stub;
  EXPECT_EQ(stub.type_of(h.app->received()[0]), "gack");
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 77);
  EXPECT_EQ(h.pfi->stats().injected, 1u);
}

TEST(PfiLayer, InjectHexDown) {
  Harness h;
  // type=data(0x08), id=0x00000005, payload "hi" (6869)
  h.pfi->send_interp().eval("xInjectHex down 08000000056869");
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 1u);  // loops back up
  EXPECT_EQ(h.app->received()[0].size(), 7u);
}

TEST(PfiLayer, InjectHexWithDelay) {
  Harness h;
  h.pfi->send_interp().eval("xInjectHex down 0800000001 250");
  h.sched.run_until(sim::msec(100));
  EXPECT_TRUE(h.app->received().empty());
  h.sched.run_until(sim::msec(300));
  EXPECT_EQ(h.app->received().size(), 1u);
}

TEST(PfiLayer, BadHexRejected) {
  Harness h;
  EXPECT_TRUE(h.pfi->send_interp().eval("xInjectHex down zz").is_error());
  EXPECT_TRUE(h.pfi->send_interp().eval("xInjectHex down 123").is_error());
}

TEST(PfiLayer, CrossInterpreterPeerSetGet) {
  Harness h;
  // The paper's example: the send filter tells the receive filter to start
  // dropping.
  h.pfi->run_setup("set dropping 0");
  h.pfi->set_send_script(R"tcl(
if {[msg_type cur_msg] eq "gack"} { peer_set dropping 1 }
)tcl");
  h.pfi->set_receive_script(R"tcl(
if {$dropping == 1} { xDrop cur_msg }
)tcl");
  h.send(ToyStub::kData, 1);  // passes both ways
  h.sched.run();
  EXPECT_EQ(h.app->received().size(), 1u);
  h.send(ToyStub::kGack, 2);  // flips the switch on the way down
  h.send(ToyStub::kData, 3);  // dropped on the way up
  h.sched.run();
  EXPECT_EQ(h.app->received().size(), 1u);
  EXPECT_EQ(h.pfi->stats().dropped, 2u);
  EXPECT_EQ(h.pfi->send_interp().get_global("dropping").value_or(""), "0");
  EXPECT_EQ(h.pfi->receive_interp().get_global("dropping").value_or(""), "1");
}

TEST(PfiLayer, SyncBusSharedAcrossLayers) {
  Harness h1;
  // Second layer sharing the same bus.
  sim::Scheduler sched2;
  PfiConfig cfg;
  cfg.sync = h1.sync;
  PfiLayer other{sched2, cfg};
  h1.pfi->send_interp().eval("sync_set phase attack");
  script::Result r = other.send_interp().eval("sync_get phase");
  EXPECT_TRUE(r.is_ok());
  EXPECT_EQ(r.value, "attack");
  other.send_interp().eval("sync_incr counter 5");
  EXPECT_EQ(h1.pfi->receive_interp().eval("sync_incr counter 1").value, "6");
}

TEST(PfiLayer, SyncGetDefault) {
  Harness h;
  EXPECT_EQ(h.pfi->send_interp().eval("sync_get missing fallback").value,
            "fallback");
  EXPECT_TRUE(h.pfi->send_interp().eval("sync_get missing").is_error());
}

TEST(PfiLayer, AfterSchedulesScript) {
  Harness h;
  h.pfi->run_setup("set phase 0");
  h.pfi->send_interp().eval("after 1000 {set phase 1}");
  h.sched.run_until(sim::msec(500));
  EXPECT_EQ(h.pfi->send_interp().get_global("phase").value_or(""), "0");
  h.sched.run_until(sim::msec(1500));
  EXPECT_EQ(h.pfi->send_interp().get_global("phase").value_or(""), "1");
}

TEST(PfiLayer, AfterCanRepeatItself) {
  Harness h;
  h.pfi->run_setup("set ticks 0");
  h.pfi->send_interp().eval(
      "proc tick {} { global ticks; incr ticks; after 100 tick }\n"
      "after 100 tick");
  h.sched.run_until(sim::msec(550));
  EXPECT_EQ(h.pfi->send_interp().get_global("ticks").value_or(""), "5");
}

TEST(PfiLayer, DistributionsReturnNumbers) {
  Harness h;
  auto& in = h.pfi->send_interp();
  for (const char* script :
       {"dst_normal 5 1", "dst_uniform 0 10", "dst_exponential 2"}) {
    script::Result r = in.eval(script);
    ASSERT_TRUE(r.is_ok()) << script;
    EXPECT_NO_THROW((void)std::stod(r.value)) << script;
  }
  script::Result b = in.eval("dst_bernoulli 0.5");
  ASSERT_TRUE(b.is_ok());
  EXPECT_TRUE(b.value == "0" || b.value == "1");
}

TEST(PfiLayer, ProbabilisticDropRoughlyMatchesRate) {
  Harness h;
  h.pfi->set_send_script("if {[dst_bernoulli 0.5]} { xDrop cur_msg }");
  for (int i = 0; i < 400; ++i) {
    h.send(ToyStub::kData, static_cast<std::uint32_t>(i));
  }
  h.sched.run();
  const auto got = h.app->received().size();
  EXPECT_GT(got, 120u);
  EXPECT_LT(got, 280u);
}

TEST(PfiLayer, ScriptErrorFailsOpen) {
  Harness h;
  h.pfi->set_send_script("this_command_does_not_exist");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 1u);  // message still passes
  EXPECT_EQ(h.pfi->stats().script_errors, 1u);
  EXPECT_NE(h.pfi->last_error().find("invalid command name"),
            std::string::npos);
}

TEST(PfiLayer, DropWinsOverDuplicate) {
  Harness h;
  h.pfi->set_send_script("xDuplicate 3\nxDrop cur_msg");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 0u);
}

TEST(PfiLayer, MsgLogWritesTrace) {
  Harness h;
  h.pfi->set_receive_script("msg_log cur_msg experiment-note");
  h.send(ToyStub::kData, 42, "xyz");
  h.sched.run();
  ASSERT_EQ(h.trace.size(), 1u);
  const auto& rec = h.trace.records()[0];
  EXPECT_EQ(rec.node, "testnode");
  EXPECT_EQ(rec.direction, "recv");
  EXPECT_EQ(rec.type, "data");
  EXPECT_NE(rec.detail.find("id=42"), std::string::npos);
  EXPECT_NE(rec.detail.find("experiment-note"), std::string::npos);
}

TEST(PfiLayer, CountersPersistAcrossMessages) {
  Harness h;
  h.pfi->run_setup("set count 0");
  h.pfi->set_send_script("incr count\nif {$count > 3} { xDrop cur_msg }");
  for (int i = 0; i < 6; ++i) {
    h.send(ToyStub::kData, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(h.delivered(), 3u);
}

TEST(PfiLayer, UserDefinedCommandCallable) {
  Harness h;
  int called = 0;
  h.pfi->register_command(
      "my_probe",
      [&called](script::Interp&, const std::vector<std::string>&) {
        ++called;
        return script::Result::ok("done");
      });
  h.pfi->set_send_script("my_probe");
  h.send(ToyStub::kData, 1);
  h.sched.run();
  EXPECT_EQ(called, 1);
}

TEST(PfiLayer, NodeNameAndDirAvailable) {
  Harness h;
  EXPECT_EQ(h.pfi->send_interp().eval("node_name").value, "testnode");
  EXPECT_EQ(h.pfi->send_interp().eval("filter_dir").value, "send");
  EXPECT_EQ(h.pfi->receive_interp().eval("filter_dir").value, "recv");
}

TEST(PfiLayer, NowCommandsTrackSimClock) {
  Harness h;
  h.sched.run_until(sim::msec(2500));
  EXPECT_EQ(h.pfi->send_interp().eval("now_ms").value, "2500");
  EXPECT_EQ(h.pfi->send_interp().eval("now_us").value, "2500000");
}

TEST(PfiLayer, MsgCommandsOutsideFilterAreErrors) {
  Harness h;
  EXPECT_TRUE(h.pfi->send_interp().eval("msg_type cur_msg").is_error());
  EXPECT_TRUE(h.pfi->send_interp().eval("xDrop cur_msg").is_error());
  EXPECT_TRUE(h.pfi->send_interp().eval("xDelay cur_msg 10").is_error());
}

TEST(PfiLayer, SetupRunsInBothInterpreters) {
  Harness h;
  h.pfi->run_setup("set shared 9");
  EXPECT_EQ(h.pfi->send_interp().get_global("shared").value_or(""), "9");
  EXPECT_EQ(h.pfi->receive_interp().get_global("shared").value_or(""), "9");
}

// The interpreter counters are the benchmark's script.evals_per_cell and
// script.commands_per_eval layer metrics: they count work the script asks
// for, so they must not move when the interpreter's internals change.
TEST(PfiLayer, InterpreterCountersArePinned) {
  Harness h;
  h.pfi->run_setup(R"tcl(
set seen 0
proc bump {k} { global seen; incr seen $k; return $seen }
)tcl");
  h.pfi->set_send_script(R"tcl(
set t [msg_type cur_msg]
if {$t eq "data" && [string length $t] > 0} {
  bump [expr {[msg_len cur_msg] > 8 ? 2 : 1}]
} elseif {$t eq "ack"} {
  bump 3
} else {
  bump 1
}
set i 0
while {$i < 2} { incr i }
foreach f {a b} { set last $f }
switch -glob $t { d* { set kind data } default { set kind other } }
if {[catch {error boom} msg]} { set caught $msg }
)tcl");
  for (std::uint32_t id = 1; id <= 6; ++id) {
    h.send(id % 3 == 0 ? ToyStub::kAck : ToyStub::kData, id, "payload");
  }
  EXPECT_EQ(h.delivered(), 6u);
  const script::Interp::Stats& st = h.pfi->send_interp().stats();
  EXPECT_EQ(st.evals, 87u);
  EXPECT_EQ(st.commands, 136u);
  EXPECT_EQ(st.loop_ticks, 30u);
  EXPECT_EQ(h.pfi->send_interp().get_global("seen").value_or(""), "14");
}

// Ten times more distinct eval strings than the parse cache holds: the
// strings past its capacity are parsed per use and must run the same way.
TEST(PfiLayer, ManyDistinctEvalStringsAllRun) {
  Harness h;
  constexpr int kStrings = 10 * static_cast<int>(script::kParseCacheCapacity);
  const script::Result r = h.pfi->run_setup(
      "for {set i 0} {$i < " + std::to_string(kStrings) +
      "} {incr i} { eval \"set v$i $i\" }\nset done 1");
  ASSERT_TRUE(r.is_ok()) << r.value;
  script::Interp& in = h.pfi->send_interp();
  for (int i = 0; i < kStrings; i += 97) {
    EXPECT_EQ(in.get_var("v" + std::to_string(i)).value_or(""),
              std::to_string(i));
  }
  EXPECT_EQ(in.get_var("v" + std::to_string(kStrings - 1)).value_or(""),
            std::to_string(kStrings - 1));
  // Top level + init + (body + eval + next) per iteration.
  EXPECT_EQ(in.stats().evals, 2u + 3u * kStrings);
  // Twice: the same strings evaluate the same way from a warm interpreter.
  ASSERT_TRUE(h.pfi->send_interp()
                  .eval("for {set i 0} {$i < " + std::to_string(kStrings) +
                        "} {incr i} { eval \"set v$i x$i\" }")
                  .is_ok());
  EXPECT_EQ(in.get_var("v7").value_or(""), "x7");
}

}  // namespace
}  // namespace pfi::core
