// Unit tests for the x-Kernel-style message and layer framework.
#include <gtest/gtest.h>

#include "gmp/message.hpp"
#include "tpc/tpc.hpp"
#include "trace/trace.hpp"
#include "xk/layer.hpp"
#include "xk/message.hpp"

namespace pfi::xk {
namespace {

/// Owning copy of a popped header, for content comparisons.
std::vector<std::uint8_t> copy_of(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

TEST(Message, EmptyByDefault) {
  Message m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Message, FromStringRoundTrips) {
  Message m{"hello"};
  EXPECT_EQ(m.as_string(), "hello");
  EXPECT_EQ(m.size(), 5u);
}

TEST(Message, PushPopHeaderInverse) {
  Message m{"payload"};
  const std::vector<std::uint8_t> hdr{1, 2, 3, 4};
  m.push_header(hdr);
  EXPECT_EQ(m.size(), 11u);
  auto popped = m.pop_header(4);
  EXPECT_EQ(copy_of(popped), hdr);
  EXPECT_EQ(m.as_string(), "payload");
}

TEST(Message, PopHeaderTooLargeReturnsEmptyAndLeavesMessage) {
  Message m{"abc"};
  auto popped = m.pop_header(10);
  EXPECT_TRUE(popped.empty());
  EXPECT_EQ(m.as_string(), "abc");
  EXPECT_TRUE(m.pop_header(4).empty());  // one past the end
  EXPECT_EQ(copy_of(m.pop_header(3)),
            (std::vector<std::uint8_t>{'a', 'b', 'c'}));
  EXPECT_TRUE(m.empty());
}

TEST(Message, PoppedSpanViewsTheMessageBuffer) {
  // The span aliases the bytes just stripped: valid (and unchanged) until
  // the next push, which reuses that headroom.
  Message m{"payload"};
  const std::vector<std::uint8_t> hdr{1, 2, 3};
  m.push_header(hdr);
  const std::uint8_t* front = m.bytes().data();
  auto popped = m.pop_header(3);
  EXPECT_EQ(popped.data(), front);
  EXPECT_EQ(copy_of(popped), hdr);
  EXPECT_EQ(m.bytes().data(), front + 3);
}

TEST(Message, NestedHeadersPopInReverseOrder) {
  Message m{"data"};
  const std::vector<std::uint8_t> inner{0xAA};
  const std::vector<std::uint8_t> outer{0xBB, 0xCC};
  m.push_header(inner);
  m.push_header(outer);
  EXPECT_EQ(copy_of(m.pop_header(2)), outer);
  EXPECT_EQ(copy_of(m.pop_header(1)), inner);
  EXPECT_EQ(m.as_string(), "data");
}

TEST(Message, HeaderLargerThanHeadroomRegrows) {
  // The headroom optimisation must fall back gracefully when a header
  // exceeds the reserved front space.
  Message m{"payload"};
  std::vector<std::uint8_t> big(500);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  m.push_header(big);
  EXPECT_EQ(m.size(), 507u);
  EXPECT_EQ(copy_of(m.pop_header(500)), big);
  EXPECT_EQ(m.as_string(), "payload");
}

TEST(Message, ManyHeaderCyclesStayConsistent) {
  Message m{"x"};
  const std::vector<std::uint8_t> hdr{9, 8, 7};
  for (int i = 0; i < 1000; ++i) {
    m.push_header(hdr);
    ASSERT_EQ(m.size(), 4u);
    ASSERT_EQ(copy_of(m.pop_header(3)), hdr);
  }
  EXPECT_EQ(m.as_string(), "x");
}

TEST(Message, DeepHeaderStackBeyondHeadroom) {
  // 30 stacked 5-byte headers = 150 bytes of prefix, crossing the 64-byte
  // headroom twice; everything must still pop in reverse order.
  Message m{"core"};
  for (std::uint8_t i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> h{i, i, i, i, i};
    m.push_header(h);
  }
  for (int i = 29; i >= 0; --i) {
    auto h = m.pop_header(5);
    ASSERT_EQ(h.size(), 5u);
    EXPECT_EQ(h[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(m.as_string(), "core");
}

TEST(Message, EqualityIsContentBased) {
  // Same content via different header histories must compare equal.
  Message a{"abc"};
  Message b;
  b.append("c");
  const std::vector<std::uint8_t> hdr{'a', 'b'};
  b.push_header(hdr);
  EXPECT_TRUE(a == b);
  Message c{"abd"};
  EXPECT_FALSE(a == c);
}

TEST(Message, ByteAccessOutOfRangeIsSafe) {
  Message m{"x"};
  EXPECT_EQ(m.byte_at(100), 0);
  m.set_byte(100, 7);  // silently ignored
  EXPECT_EQ(m.size(), 1u);
}

TEST(Message, SetByteMutates) {
  Message m{"abc"};
  m.set_byte(1, 'X');
  EXPECT_EQ(m.as_string(), "aXc");
}

TEST(Message, TruncateShortens) {
  Message m{"abcdef"};
  m.truncate(3);
  EXPECT_EQ(m.as_string(), "abc");
  m.truncate(10);  // no-op when longer than message
  EXPECT_EQ(m.size(), 3u);
}

TEST(Message, PrintableEscapesNonPrintables) {
  Message m{std::vector<std::uint8_t>{'a', 0x00, 0xFF, 'b'}};
  EXPECT_EQ(m.printable(), "a\\x00\\xffb");
}

TEST(WriterReader, AllWidthsRoundTrip) {
  Writer w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDE);
  w.u64(0x0102030405060708ULL);
  w.str("hi there");
  Reader r{std::span<const std::uint8_t>{w.data()}};
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.str(), "hi there");
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WriterReader, BigEndianOnWire) {
  Writer w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(WriterReader, TruncatedReadSticky) {
  Writer w;
  w.u8(1);
  Reader r{std::span<const std::uint8_t>{w.data()}};
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_TRUE(r.truncated());
  EXPECT_EQ(r.u8(), 0);  // stays truncated
  EXPECT_TRUE(r.truncated());
}

TEST(WriterReader, InlineWritesMatchByteAtATimeEncoding) {
  Writer w;
  w.u16(0xA1B2);
  w.u32(0xC3D4E5F6);
  w.u64(0x0102030405060708ULL);
  EXPECT_EQ(w.size(), 14u);
  EXPECT_EQ(copy_of(w.data()),
            (std::vector<std::uint8_t>{0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 1,
                                       2, 3, 4, 5, 6, 7, 8}));
}

// Spill-path round-trips. RefWriter is the byte-at-a-time vector encoder the
// inline Writer replaced; every encoding that outgrows
// Writer::kInlineCapacity must still match it byte for byte.
struct RefWriter {
  std::vector<std::uint8_t> out;
  void be(std::uint64_t v, int width) {
    for (int shift = 8 * (width - 1); shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }
};

TEST(WriterSpill, GmpMessageWith64MembersMatchesReference) {
  gmp::GmpMessage m;
  m.type = gmp::MsgType::kCommit;
  m.sender = 3;
  m.originator = 0x01020304;
  m.subject = 9;
  m.view_id = 0x1122334455667788ULL;
  for (std::uint32_t i = 0; i < 64; ++i) m.members.push_back(0xA0000000 + i);

  RefWriter ref;
  ref.be(static_cast<std::uint8_t>(m.type), 1);
  ref.be(m.sender, 4);
  ref.be(m.originator, 4);
  ref.be(m.subject, 4);
  ref.be(m.view_id, 8);
  ref.be(m.members.size(), 2);
  for (auto id : m.members) ref.be(id, 4);
  ASSERT_GT(ref.out.size(), Writer::kInlineCapacity);

  const Message wire = m.encode();
  EXPECT_EQ(copy_of(wire.bytes()), ref.out);
  gmp::GmpMessage back;
  ASSERT_TRUE(gmp::GmpMessage::decode(wire, back));
  EXPECT_EQ(back.members, m.members);
  EXPECT_EQ(back.view_id, m.view_id);
}

TEST(WriterSpill, TpcMessageWith64ParticipantsMatchesReference) {
  tpc::TpcMessage m;
  m.type = tpc::MsgType::kVoteReq;
  m.txid = 0xDEADBEEF;
  m.sender = 1;
  m.decision = tpc::Decision::kAbort;
  for (std::uint32_t i = 0; i < 64; ++i) m.participants.push_back(i * 7919);

  RefWriter ref;
  ref.be(static_cast<std::uint8_t>(m.type), 1);
  ref.be(m.txid, 4);
  ref.be(m.sender, 4);
  ref.be(static_cast<std::uint8_t>(m.decision), 1);
  ref.be(m.participants.size(), 2);
  for (auto id : m.participants) ref.be(id, 4);
  ASSERT_GT(ref.out.size(), Writer::kInlineCapacity);

  const Message wire = m.encode();
  EXPECT_EQ(copy_of(wire.bytes()), ref.out);
  tpc::TpcMessage back;
  ASSERT_TRUE(tpc::TpcMessage::decode(wire, back));
  EXPECT_EQ(back.participants, m.participants);
}

TEST(WriterSpill, LongStrMatchesReferenceAndRoundTrips) {
  std::string text(300, ' ');
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>('a' + i % 26);
  }
  Writer w;
  w.u8(0x7F);  // spill with bytes already inline
  w.str(text);
  w.u32(0x0A0B0C0D);  // keep writing after the spill

  RefWriter ref;
  ref.be(0x7F, 1);
  ref.be(text.size(), 2);
  for (char c : text) ref.out.push_back(static_cast<std::uint8_t>(c));
  ref.be(0x0A0B0C0D, 4);
  EXPECT_EQ(copy_of(w.data()), ref.out);

  Message m{"tail"};
  w.push_onto(m);
  Reader r{m};
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.str(), text);
  EXPECT_EQ(r.u32(), 0x0A0B0C0Du);
  EXPECT_FALSE(r.truncated());
}

TEST(WriterSpill, ExactlyInlineCapacityThenOneMore) {
  // The boundary: a write that fills the inline buffer exactly stays
  // inline; the next byte spills everything written so far.
  Writer w;
  RefWriter ref;
  for (std::size_t i = 0; i < Writer::kInlineCapacity / 4; ++i) {
    w.u32(static_cast<std::uint32_t>(i * 0x01010101));
    ref.be(i * 0x01010101, 4);
  }
  ASSERT_EQ(w.size(), Writer::kInlineCapacity);
  EXPECT_EQ(copy_of(w.data()), ref.out);
  w.u8(0xEE);
  ref.be(0xEE, 1);
  EXPECT_EQ(copy_of(w.data()), ref.out);
}

/// Layer that stamps its name onto headers both ways, for order checks.
class TaggingLayer : public Layer {
 public:
  explicit TaggingLayer(std::string name, std::vector<std::string>& log)
      : Layer(std::move(name)), log_(log) {}
  void push(Message msg) override {
    log_.push_back(name() + ":push");
    send_down(std::move(msg));
  }
  void pop(Message msg) override {
    log_.push_back(name() + ":pop");
    send_up(std::move(msg));
  }

 private:
  std::vector<std::string>& log_;
};

/// Bottom layer that reflects pushes back up (loopback device).
class LoopbackLayer : public Layer {
 public:
  LoopbackLayer() : Layer("loop") {}
  void push(Message msg) override { send_up(std::move(msg)); }
  void pop(Message msg) override { send_up(std::move(msg)); }
};

TEST(Stack, PushTraversesTopToBottom) {
  Stack stack;
  std::vector<std::string> log;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  stack.add(std::make_unique<TaggingLayer>("a", log));
  stack.add(std::make_unique<TaggingLayer>("b", log));
  stack.add(std::make_unique<LoopbackLayer>());
  app->send("ping");
  EXPECT_EQ(log, (std::vector<std::string>{"a:push", "b:push", "b:pop",
                                           "a:pop"}));
  ASSERT_EQ(app->received().size(), 1u);
  EXPECT_EQ(app->received()[0].as_string(), "ping");
}

TEST(Stack, InsertBelowSplicesLayer) {
  Stack stack;
  std::vector<std::string> log;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  auto* a = stack.add(std::make_unique<TaggingLayer>("a", log));
  stack.add(std::make_unique<LoopbackLayer>());
  stack.insert_below(*a, std::make_unique<TaggingLayer>("spliced", log));
  app->send("x");
  EXPECT_EQ(log[0], "a:push");
  EXPECT_EQ(log[1], "spliced:push");
  EXPECT_EQ(stack.names(),
            (std::vector<std::string>{"app", "a", "spliced", "loop"}));
}

TEST(Stack, InsertAboveSplicesLayer) {
  Stack stack;
  std::vector<std::string> log;
  stack.add(std::make_unique<AppLayer>());
  auto* a = stack.add(std::make_unique<TaggingLayer>("a", log));
  stack.insert_above(*a, std::make_unique<TaggingLayer>("above", log));
  EXPECT_EQ(stack.names(), (std::vector<std::string>{"app", "above", "a"}));
}

TEST(Stack, RemoveRelinksNeighbours) {
  Stack stack;
  std::vector<std::string> log;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  auto* mid = stack.add(std::make_unique<TaggingLayer>("mid", log));
  stack.add(std::make_unique<LoopbackLayer>());
  stack.remove(*mid);
  app->send("y");
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(app->received().size(), 1u);
}

TEST(Stack, FindByName) {
  Stack stack;
  stack.add(std::make_unique<AppLayer>("top"));
  EXPECT_NE(stack.find("top"), nullptr);
  EXPECT_EQ(stack.find("nope"), nullptr);
}

TEST(Stack, BottomPushWithNoDeviceDropsSilently) {
  Stack stack;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  app->send("into the void");  // must not crash
  EXPECT_TRUE(app->received().empty());
}

TEST(AppLayer, TakeReceivedDrains) {
  Stack stack;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  stack.add(std::make_unique<LoopbackLayer>());
  app->send("one");
  app->send("two");
  auto msgs = app->take_received();
  EXPECT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(app->received().empty());
}

TEST(TraceLog, IntervalsComputeSuccessiveDifferences) {
  std::vector<sim::TimePoint> times{sim::sec(1), sim::sec(3), sim::sec(7)};
  auto iv = trace::TraceLog::intervals(times);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], sim::sec(2));
  EXPECT_EQ(iv[1], sim::sec(4));
}

TEST(TraceLog, SelectAndCount) {
  trace::TraceLog log;
  log.add(1, "n1", "send", "t1", "a");
  log.add(2, "n1", "recv", "t1", "b");
  log.add(3, "n2", "send", "t2", "c");
  EXPECT_EQ(log.count("t1"), 2u);
  EXPECT_EQ(log.count("t1", "send"), 1u);
  auto sel = log.select([](const trace::Record& r) { return r.node == "n2"; });
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0].detail, "c");
  auto first = log.first([](const trace::Record& r) { return r.at > 1; });
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->at, 2);
}

// Property: header push/pop round-trips for arbitrary sizes.
class HeaderRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeaderRoundTrip, Inverse) {
  const std::size_t n = GetParam();
  Message m{"body"};
  std::vector<std::uint8_t> hdr(n);
  for (std::size_t i = 0; i < n; ++i) {
    hdr[i] = static_cast<std::uint8_t>(i * 37);
  }
  m.push_header(hdr);
  EXPECT_EQ(copy_of(m.pop_header(n)), hdr);
  EXPECT_EQ(m.as_string(), "body");
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeaderRoundTrip,
                         ::testing::Values(0, 1, 2, 5, 17, 64, 255, 1500));

}  // namespace
}  // namespace pfi::xk
