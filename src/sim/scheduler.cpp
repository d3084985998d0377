#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace pfi::sim {

TimerId Scheduler::schedule(Duration delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

namespace {

std::uint32_t slot_of(TimerId id) { return static_cast<std::uint32_t>(id); }
std::uint32_t gen_of(TimerId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

TimerId Scheduler::acquire() {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint32_t gen = ++slot_gen_[slot];  // even -> odd: live
  ++live_count_;
  return (static_cast<TimerId>(gen) << 32) | slot;
}

bool Scheduler::release(TimerId id) {
  if (!pending(id)) return false;
  ++slot_gen_[slot_of(id)];  // odd -> even: free
  free_slots_.push_back(slot_of(id));
  --live_count_;
  return true;
}

TimerId Scheduler::schedule_at(TimePoint when, std::function<void()> fn) {
  const TimerId id = acquire();
  Event ev;
  ev.when = std::max(when, now_);
  ev.seq = next_seq_++;
  ev.id = id;
  ev.fn = std::move(fn);
  queue_.push(std::move(ev));
  ++stats_.timers_scheduled;
  if (live_count_ > stats_.queue_high_water) {
    stats_.queue_high_water = live_count_;
  }
  return id;
}

bool Scheduler::cancel(TimerId id) {
  if (!release(id)) return false;
  ++stats_.timers_cancelled;
  return true;
}

bool Scheduler::pending(TimerId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slot_gen_.size() && (gen_of(id) & 1U) != 0 &&
         slot_gen_[slot] == gen_of(id);
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    // priority_queue::top() is const; we need to move the callback out.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if (!release(ev.id)) continue;  // cancelled tombstone
    now_ = ev.when;
    ++stats_.events_dispatched;
    ev.fn();
    return true;
  }
  return false;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && step()) ++fired;
  return fired;
}

std::size_t Scheduler::run_until(TimePoint deadline, std::size_t max_events) {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    // Peek past cancelled tombstones without firing anything late.
    if (!pending(queue_.top().id)) {
      queue_.pop();
      continue;
    }
    if (queue_.top().when > deadline) break;
    // Budget-stopped with due events still queued: leave the clock at the
    // last fired event so a follow-up call resumes exactly where this one
    // left off (the campaign watchdog advances in slices this way).
    if (fired >= max_events) return fired;
    if (step()) ++fired;
  }
  now_ = std::max(now_, deadline);
  return fired;
}

std::size_t Scheduler::run_for(Duration span, std::size_t max_events) {
  return run_until(now_ + std::max<Duration>(span, 0), max_events);
}

}  // namespace pfi::sim
