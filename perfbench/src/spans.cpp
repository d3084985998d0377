#include "spans.hpp"

#include <chrono>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::open(std::uint32_t sink) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({sink, open_.empty() ? -1 : open_.back(), now_ns(), 0});
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

void SpanRecorder::clear() {
  spans_.clear();
  open_.clear();
}

std::vector<SinkTotal> self_times(const std::vector<Span>& spans,
                                  std::size_t sinks) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<SinkTotal> out(sinks);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SinkTotal& t = out[spans[i].sink];
    t.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
    ++t.count;
  }
  return out;
}

std::int64_t root_covered_ns(const std::vector<Span>& spans, std::size_t from) {
  std::int64_t ns = 0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (spans[i].parent < 0) ns += spans[i].end_ns - spans[i].start_ns;
  }
  return ns;
}

}  // namespace perfbench
