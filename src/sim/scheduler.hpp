// Deterministic discrete-event scheduler.
//
// All asynchrony in the toolkit — network propagation delays, protocol
// retransmission timers, script-requested delays — is expressed as events on
// one scheduler. Events at equal timestamps fire in insertion order, so a
// given seed always replays the identical execution. This determinism is what
// lets the PFI experiments force "hard-to-reach" interleavings on purpose
// instead of hoping for them (paper §1).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace pfi::sim {

/// Handle to a scheduled event; used to cancel it before it fires.
///
/// The low 32 bits name a slot in the scheduler's liveness table, the high
/// 32 bits the generation that slot had when the event was scheduled. A slot
/// is reused once its event fires or is cancelled, with a new generation, so
/// a stale handle is never mistaken for the slot's next event.
using TimerId = std::uint64_t;

constexpr TimerId kInvalidTimer = 0;

/// Intrinsic instrumentation, always on: four integer updates per event is
/// cheap enough to never gate, and keeping it inside the scheduler means the
/// counts are a pure function of the simulation (exported into the campaign
/// metrics registry at collect time, never sampled off wall clocks).
struct SchedulerStats {
  std::uint64_t events_dispatched = 0;  // callbacks actually fired
  std::uint64_t timers_scheduled = 0;
  std::uint64_t timers_cancelled = 0;   // cancelled before firing
  std::uint64_t queue_high_water = 0;   // max live events ever queued
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` from now. Negative delays clamp to zero
  /// (the event fires "immediately", after already-queued events at `now`).
  TimerId schedule(Duration delay, std::function<void()> fn);

  /// Schedule `fn` at an absolute time (clamped to `now`).
  TimerId schedule_at(TimePoint when, std::function<void()> fn);

  /// Cancel a pending event. Returns true if the event had not yet fired.
  bool cancel(TimerId id);

  /// True if `id` refers to an event that has not yet fired or been cancelled.
  [[nodiscard]] bool pending(TimerId id) const;

  /// Number of live events queued (cancelled tombstones are not counted).
  [[nodiscard]] std::size_t queued() const { return live_count_; }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

  /// Run a single event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty or `max_events` have fired.
  /// Returns the number of events fired.
  std::size_t run(std::size_t max_events = kDefaultEventBudget);

  /// Run all events with timestamp <= `deadline`, then advance the clock to
  /// `deadline` (even if idle). Returns the number of events fired. If
  /// `max_events` stops the run with due events still queued, the clock
  /// stays at the last fired event so a follow-up call resumes seamlessly.
  std::size_t run_until(TimePoint deadline,
                        std::size_t max_events = kDefaultEventBudget);

  /// Run for `span` of simulated time from `now()`.
  std::size_t run_for(Duration span,
                      std::size_t max_events = kDefaultEventBudget);

  /// Guard against runaway event loops (e.g. a buggy protocol ping-ponging
  /// messages at zero delay). run()/run_until() stop after this many events
  /// by default; callers with legitimately long runs pass a larger budget.
  static constexpr std::size_t kDefaultEventBudget = 50'000'000;

 private:
  struct Event {
    TimePoint when = 0;
    std::uint64_t seq = 0;  // insertion order; breaks timestamp ties
    TimerId id = kInvalidTimer;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Claim a slot (reusing a free one first) and return the live id.
  TimerId acquire();
  /// Free `id`'s slot if `id` is live; returns whether it was.
  bool release(TimerId id);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Liveness table: one generation per slot, odd while the slot holds a
  // live event and even while it is free, so a TimerId (which always carries
  // an odd generation) is live exactly when its slot's generation equals
  // its own. Grows only to the most events ever live at once.
  std::vector<std::uint32_t> slot_gen_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  SchedulerStats stats_;
};

/// RAII one-shot timer bound to a scheduler.
///
/// Protocol code holds a Timer per logical timeout (retransmit, keep-alive,
/// heartbeat-expect, ...). Destroying the Timer cancels any pending event, so
/// a destroyed connection can never fire a stale callback.
class Timer {
 public:
  explicit Timer(Scheduler& sched) : sched_(&sched) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arm (or re-arm) the timer to fire `delay` from now.
  void arm(Duration delay, std::function<void()> fn) {
    cancel();
    fn_ = std::move(fn);
    id_ = sched_->schedule(delay, [this] {
      id_ = kInvalidTimer;
      // Move out first: the callback may re-arm this same timer.
      auto fn = std::move(fn_);
      fn_ = nullptr;
      fn();
    });
  }

  /// Cancel without firing. Safe if not armed.
  void cancel() {
    if (id_ != kInvalidTimer) {
      sched_->cancel(id_);
      id_ = kInvalidTimer;
      fn_ = nullptr;
    }
  }

  [[nodiscard]] bool armed() const { return id_ != kInvalidTimer; }

 private:
  Scheduler* sched_;
  TimerId id_ = kInvalidTimer;
  std::function<void()> fn_;
};

}  // namespace pfi::sim
