// In-memory span recording for the traced run.
//
// A span is one synchronous call across a layer boundary: its sink (which
// layer and direction it is charged to), its start and end on the steady
// clock, and the span that was open when it began (its parent). Spans are
// appended to a vector while a cell runs and folded into per-sink totals
// afterwards; nothing is written out until the benchmark ends.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::uint32_t sink = 0;
  std::int32_t parent = -1;  // index into the span vector, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Open a span charged to `sink`, nested under the innermost open span.
  std::int32_t open(std::uint32_t sink);
  /// Close the innermost open span, which must be `id`.
  void close(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  void clear();

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

struct SinkTotal {
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
};

/// Self time per sink: each span's duration minus the time covered by its
/// direct children (children of a synchronous call never overlap). `sinks`
/// is the number of distinct sink ids.
std::vector<SinkTotal> self_times(const std::vector<Span>& spans,
                                  std::size_t sinks);

/// Total duration of the root spans at index >= `from` — the part of a
/// scheduler run that some probe accounted for.
std::int64_t root_covered_ns(const std::vector<Span>& spans, std::size_t from);

}  // namespace perfbench
