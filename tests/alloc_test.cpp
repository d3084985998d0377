// Allocation regression test for the per-message header and timer path.
//
// This executable replaces the global operator new/delete with counting
// versions that forward to std::malloc/std::free, so sanitizer builds still
// see (and check) every block. Each test warms its path up once, then
// asserts that repeating it performs zero heap allocations. Counts, not
// times: the result is deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "gmp/message.hpp"
#include "net/layers.hpp"
#include "sim/scheduler.hpp"
#include "xk/layer.hpp"
#include "xk/message.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pfi {
namespace {

/// Heap allocations performed by `body`.
template <typename F>
std::size_t allocations_in(F&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Layer that parks whatever reaches it, so a test can take the message
/// back and send it round again without building a new one.
class Park : public xk::Layer {
 public:
  Park() : Layer("park") {}
  void push(xk::Message msg) override { held = std::move(msg); }
  void pop(xk::Message msg) override { held = std::move(msg); }
  xk::Message held;
};

TEST(Allocations, CounterSeesHeapAllocations) {
  // Guards the harness itself: a test that counted nothing would pass.
  EXPECT_GE(allocations_in([] {
              auto p = std::make_unique<int>(7);
              EXPECT_EQ(*p, 7);
            }),
            1u);
}

TEST(Allocations, MetaPushAndPopIntoHeadroomAllocateNothing) {
  xk::Message msg{"payload"};
  net::UdpMeta udp;
  udp.remote = 2;
  udp.remote_port = 7;
  udp.local_port = 9;
  net::IpMeta ip;
  ip.remote = 2;
  ip.proto = net::IpProto::kUdp;
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < 1000; ++i) {
      udp.push_onto(msg);
      ip.push_onto(msg);
      const net::IpMeta ip_back = net::IpMeta::pop_from(msg);
      const net::UdpMeta udp_back = net::UdpMeta::pop_from(msg);
      ASSERT_EQ(ip_back.proto, net::IpProto::kUdp);
      ASSERT_EQ(udp_back.local_port, 9);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(msg.as_string(), "payload");
}

TEST(Allocations, PopHeaderOnAMessageWithHeadroomAllocatesNothing) {
  xk::Message msg{"payload"};
  const std::uint8_t hdr[17] = {0xAB};
  std::size_t seen = 0;
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < 1000; ++i) {
      msg.push_header(hdr);
      seen += msg.pop_header(sizeof hdr).size();
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(seen, 1000 * sizeof hdr);
}

TEST(Allocations, IpLayerPushAndPopAllocateNothing) {
  constexpr net::NodeId kSelf = 1;
  xk::Stack stack;
  auto* top = static_cast<Park*>(stack.add(std::make_unique<Park>()));
  auto* ip = stack.add(std::make_unique<net::IpLayer>(kSelf));
  auto* bottom = static_cast<Park*>(stack.add(std::make_unique<Park>()));

  xk::Message msg{"payload"};
  net::IpMeta meta;
  meta.remote = kSelf;  // addressed to ourselves, so pop hands it up
  meta.proto = net::IpProto::kUdp;
  auto round_trip = [&] {
    meta.push_onto(msg);
    ip->push(std::move(msg));  // IpMeta -> 12-byte IP header
    ip->pop(std::move(bottom->held));  // IP header -> IpMeta
    msg = std::move(top->held);
    net::IpMeta::pop_from(msg);
  };
  round_trip();  // warm-up
  ASSERT_EQ(msg.as_string(), "payload");
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < 1000; ++i) round_trip();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(msg.as_string(), "payload");
}

TEST(Allocations, EncodedMessageCrossesUdpAndIpWithoutRegrowing) {
  // A freshly encoded GMP message (3 members: the largest header that fits
  // Writer's inline buffer) gets its first header pushed onto an empty
  // Message. That one allocation must leave enough headroom for UdpMeta,
  // the UDP header and the IP header below it.
  gmp::GmpMessage m;
  m.type = gmp::MsgType::kCommit;
  m.members = {1, 2, 3};
  xk::Message msg = m.encode();
  const std::size_t gmp_bytes = msg.size();

  xk::Stack stack;
  stack.add(std::make_unique<Park>());
  auto* udp = stack.add(std::make_unique<net::UdpLayer>(1));
  stack.add(std::make_unique<net::IpLayer>(1));
  auto* bottom = static_cast<Park*>(stack.add(std::make_unique<Park>()));
  net::UdpMeta meta;
  meta.remote = 2;
  meta.remote_port = 7;
  meta.local_port = 9;
  const std::size_t n = allocations_in([&] {
    meta.push_onto(msg);
    udp->push(std::move(msg));
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(bottom->held.size(), gmp_bytes + 6 + 12);
}

TEST(Allocations, ScheduleCancelStepAllocateNothingAfterWarmUp) {
  sim::Scheduler sched;
  auto cycle = [&] {
    const sim::TimerId keep = sched.schedule(1, [] {});
    const sim::TimerId drop = sched.schedule(2, [] {});
    ASSERT_TRUE(sched.cancel(drop));
    ASSERT_TRUE(sched.step());  // fires `keep`
    ASSERT_FALSE(sched.pending(keep));
    ASSERT_FALSE(sched.step());  // only the tombstone was left
  };
  for (int i = 0; i < 4; ++i) cycle();  // warm-up: queue and slot storage
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < 1000; ++i) cycle();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sched.stats().timers_scheduled, 2u * 1004);
  EXPECT_EQ(sched.stats().timers_cancelled, 1004u);
}

}  // namespace
}  // namespace pfi
