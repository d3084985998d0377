// Unit tests for the deterministic scheduler, timers and RNG.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace pfi::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(msec(30), [&] { order.push_back(3); });
  s.schedule(msec(10), [&] { order.push_back(1); });
  s.schedule(msec(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler s;
  s.schedule(msec(10), [] {});
  s.run();
  bool ran = false;
  s.schedule(-msec(5), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), msec(10));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  TimerId id = s.schedule(msec(10), [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler s;
  s.run_until(sec(5));
  EXPECT_EQ(s.now(), sec(5));
}

TEST(Scheduler, RunUntilDoesNotFireLaterEvents) {
  Scheduler s;
  bool early = false;
  bool late = false;
  s.schedule(sec(1), [&] { early = true; });
  s.schedule(sec(10), [&] { late = true; });
  s.run_until(sec(5));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Scheduler, EventsScheduledDuringRunFire) {
  Scheduler s;
  int fired = 0;
  s.schedule(msec(1), [&] {
    ++fired;
    s.schedule(msec(1), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler s;
  s.run_until(sec(3));
  bool ran = false;
  s.schedule(sec(2), [&] { ran = true; });
  s.run_for(sec(1));
  EXPECT_FALSE(ran);
  s.run_for(sec(1));
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), sec(5));
}

TEST(Scheduler, EventBudgetStopsRunawayLoops) {
  Scheduler s;
  std::function<void()> loop = [&] { s.schedule(0, loop); };
  s.schedule(0, loop);
  const std::size_t fired = s.run(1000);
  EXPECT_EQ(fired, 1000u);
}

TEST(Timer, FiresOnce) {
  Scheduler s;
  Timer t{s};
  int fired = 0;
  t.arm(msec(5), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPrevious) {
  Scheduler s;
  Timer t{s};
  int which = 0;
  t.arm(msec(5), [&] { which = 1; });
  t.arm(msec(10), [&] { which = 2; });
  s.run();
  EXPECT_EQ(which, 2);
}

TEST(Timer, CallbackMayRearmItself) {
  Scheduler s;
  Timer t{s};
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 3) t.arm(msec(1), tick);
  };
  t.arm(msec(1), tick);
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Timer, DestructionCancels) {
  Scheduler s;
  bool ran = false;
  {
    Timer t{s};
    t.arm(msec(1), [&] { ran = true; });
  }
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, OutOfOrderCancelsSkipOnlyTheCancelled) {
  Scheduler s;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.schedule(msec(10 * (i + 1)), [&order, i] {
      order.push_back(i);
    }));
  }
  EXPECT_TRUE(s.cancel(ids[4]));
  EXPECT_TRUE(s.cancel(ids[1]));
  EXPECT_TRUE(s.cancel(ids[3]));
  for (int i : {0, 2, 5}) EXPECT_TRUE(s.pending(ids[static_cast<size_t>(i)]));
  for (int i : {1, 3, 4}) EXPECT_FALSE(s.pending(ids[static_cast<size_t>(i)]));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 5}));
  EXPECT_EQ(s.stats().timers_cancelled, 3u);
  EXPECT_EQ(s.stats().events_dispatched, 3u);
}

TEST(Scheduler, CancelOfFiredTwiceCancelledOrInvalidIdIsRefused) {
  Scheduler s;
  const TimerId fired = s.schedule(msec(1), [] {});
  const TimerId twice = s.schedule(msec(50), [] {});
  ASSERT_TRUE(s.step());
  EXPECT_FALSE(s.pending(fired));
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_TRUE(s.cancel(twice));
  EXPECT_FALSE(s.cancel(twice));
  EXPECT_FALSE(s.pending(kInvalidTimer));
  EXPECT_FALSE(s.cancel(kInvalidTimer));
  EXPECT_EQ(s.stats().timers_cancelled, 1u);
  EXPECT_FALSE(s.step());  // only the tombstone was left
  EXPECT_EQ(s.stats().events_dispatched, 1u);
}

TEST(Scheduler, NeverIssuedIdsAreNotPending) {
  Scheduler s;
  EXPECT_FALSE(s.pending(1));
  EXPECT_FALSE(s.pending(~TimerId{0}));
  EXPECT_FALSE(s.cancel(~TimerId{0}));
  EXPECT_EQ(s.stats().timers_cancelled, 0u);
}

TEST(Scheduler, QueuedCountsLiveEventsNotTombstones) {
  Scheduler s;
  const TimerId a = s.schedule(msec(1), [] {});
  const TimerId b = s.schedule(msec(2), [] {});
  s.schedule(msec(3), [] {});
  EXPECT_EQ(s.queued(), 3u);
  s.cancel(b);
  EXPECT_EQ(s.queued(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.queued(), 1u);
  ASSERT_TRUE(s.step());  // skips both tombstones, fires the third
  EXPECT_EQ(s.queued(), 0u);
  EXPECT_EQ(s.now(), msec(3));
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, RunUntilSkipsTombstonesWithoutFiringLate) {
  Scheduler s;
  bool late = false;
  const TimerId early = s.schedule(sec(1), [] {});
  s.schedule(sec(9), [&] { late = true; });
  s.cancel(early);
  EXPECT_EQ(s.run_until(sec(5)), 0u);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), sec(5));
  EXPECT_EQ(s.queued(), 1u);
}

TEST(Scheduler, StatsAreExactForAFixedScript) {
  Scheduler s;
  const TimerId a = s.schedule(msec(10), [] {});
  const TimerId b = s.schedule(msec(20), [] {});
  s.schedule(msec(30), [] {});
  EXPECT_TRUE(s.cancel(b));
  s.schedule(msec(5), [] {});  // 3 live again: high water stays 3
  ASSERT_TRUE(s.step());       // fires the 5 ms event
  EXPECT_TRUE(s.cancel(a));
  EXPECT_FALSE(s.cancel(a));
  ASSERT_TRUE(s.step());  // skips a and b, fires the 30 ms event
  EXPECT_EQ(s.now(), msec(30));
  for (int i = 0; i < 4; ++i) s.schedule(msec(1), [] {});  // high water 4
  EXPECT_EQ(s.run(), 4u);
  const SchedulerStats& st = s.stats();
  EXPECT_EQ(st.timers_scheduled, 8u);
  EXPECT_EQ(st.timers_cancelled, 2u);
  EXPECT_EQ(st.events_dispatched, 6u);
  EXPECT_EQ(st.queue_high_water, 4u);
}

TEST(Scheduler, EventIsNotPendingInsideItsOwnCallback) {
  Scheduler s;
  TimerId self = kInvalidTimer;
  bool pending_inside = true;
  bool cancel_inside = true;
  self = s.schedule(msec(1), [&] {
    pending_inside = s.pending(self);
    cancel_inside = s.cancel(self);
  });
  s.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancel_inside);
  EXPECT_EQ(s.stats().timers_cancelled, 0u);
}

TEST(Scheduler, SlotsAreReusedAndStaleHandlesStayDead) {
  // One long-lived timer stays armed across 100k short ones. Liveness
  // slots are recycled, so the table never outgrows two entries, and a
  // handle whose slot has since been reused is neither pending nor
  // cancellable.
  Scheduler s;
  bool long_fired = false;
  const TimerId long_lived = s.schedule(sec(1000), [&] { long_fired = true; });
  const TimerId first_short = s.schedule(msec(1), [] {});
  ASSERT_TRUE(s.step());
  TimerId last_short = first_short;
  for (int i = 0; i < 100'000; ++i) {
    last_short = s.schedule(msec(1), [] {});
    EXPECT_EQ(static_cast<std::uint32_t>(last_short),
              static_cast<std::uint32_t>(first_short))
        << "short timer " << i << " did not reuse the freed slot";
    ASSERT_TRUE(s.step());
  }
  EXPECT_NE(last_short, first_short);
  EXPECT_FALSE(s.pending(first_short));
  EXPECT_FALSE(s.cancel(first_short));
  EXPECT_FALSE(s.pending(last_short));
  EXPECT_TRUE(s.pending(long_lived));
  EXPECT_EQ(s.stats().timers_cancelled, 0u);
  EXPECT_EQ(s.stats().queue_high_water, 2u);
  EXPECT_EQ(s.queued(), 1u);

  // A stale handle must not cancel the slot's current occupant either.
  const TimerId occupant = s.schedule(msec(1), [] {});
  EXPECT_EQ(static_cast<std::uint32_t>(occupant),
            static_cast<std::uint32_t>(first_short));
  EXPECT_FALSE(s.cancel(first_short));
  EXPECT_FALSE(s.cancel(last_short));
  EXPECT_TRUE(s.pending(occupant));
  s.run();
  EXPECT_TRUE(long_fired);
  EXPECT_EQ(s.stats().events_dispatched, 100'003u);
}

TEST(Timer, CancelIsIdempotent) {
  Scheduler s;
  Timer t{s};
  t.cancel();
  t.arm(msec(1), [] {});
  t.cancel();
  t.cancel();
  EXPECT_FALSE(t.armed());
  s.run();
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng r{42};
  double sum = 0;
  double sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 4.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialMeanRoughlyRight) {
  Rng r{42};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, BernoulliProbabilityRoughlyRight) {
  Rng r{42};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

// Property sweep: run_until(t) leaves the clock exactly at t for many t.
class SchedulerDeadlineSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerDeadlineSweep, ClockLandsOnDeadline) {
  Scheduler s;
  const Duration deadline = msec(GetParam());
  for (int i = 0; i < 20; ++i) s.schedule(msec(i * 7), [] {});
  s.run_until(deadline);
  EXPECT_EQ(s.now(), deadline);
}

INSTANTIATE_TEST_SUITE_P(Deadlines, SchedulerDeadlineSweep,
                         ::testing::Values(0, 1, 13, 70, 133, 1000));

}  // namespace
}  // namespace pfi::sim
