// Checks of the benchmark's own arithmetic: the percentile withholding
// rule, ratios printed with their base, and self-time subtraction on
// synthetic nested spans. Exits 1 on the first failed check; run.py runs it
// before every benchmark run.
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench self-test FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  // 100 samples: p90 is rank 90, 10 samples beyond -> reported.
  check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  const auto p90 = tail_percentile(ramp(100), 0.9);
  check(p90.has_value() && *p90 == 90, "p90 of 1..100 is 90");
  // 99 samples: rank ceil(89.1) = 90, only 9 beyond -> withheld.
  check(!tail_percentile(ramp(99), 0.9).has_value(), "p90 of 99 withheld");
  // p50 needs 20 samples: rank 10 of 20 leaves 10 beyond.
  const auto p50 = tail_percentile(ramp(20), 0.5);
  check(p50.has_value() && *p50 == 10, "p50 of 1..20 is 10");
  check(!tail_percentile(ramp(19), 0.5).has_value(), "p50 of 19 withheld");
  check(!tail_percentile({}, 0.5).has_value(), "empty sample withheld");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
}

void ratio_with_base() {
  const Ratio r{116, 256, "digests", "executions"};
  check(r.describe() == "0.4531 (116 digests / 256 executions)",
        "ratio carries its base");
  const Ratio empty{0, 0, "skips", "attempts"};
  check(empty.value() == 0 &&
            empty.describe() == "0.0000 (0 skips / 0 attempts)",
        "empty base reads 0 with its base");
}

void self_time_subtraction() {
  // a [0,100) { b [10,30)  c [40,90) { d [50,60) } }   e [200,205)
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {2, 0, 40, 90},
      {3, 2, 50, 60},  {1, -1, 200, 205},
  };
  const auto t = self_times(spans, 4);
  check(t[0].self_ns == 30 && t[0].count == 1, "a: 100 - 20 - 50");
  check(t[1].self_ns == 25 && t[1].count == 2, "b: 20 + 5 over two spans");
  check(t[2].self_ns == 40, "c: 50 - 10");
  check(t[3].self_ns == 10, "d: leaf keeps its duration");
  check(root_covered_ns(spans, 0) == 105, "roots cover 100 + 5");
  check(root_covered_ns(spans, 1) == 5, "roots from index 1 cover 5");

  SpanRecorder rec;
  const auto outer = rec.open(0);
  const auto inner = rec.open(1);
  rec.close(inner);
  rec.close(outer);
  check(rec.spans()[1].parent == outer && rec.spans()[0].parent == -1,
        "recorder nests under the open span");
  const auto live = self_times(rec.spans(), 2);
  check(live[0].self_ns >= 0 && live[1].self_ns >= 0,
        "recorded self times are non-negative");
}

}  // namespace

int main() {
  percentile_rule();
  ratio_with_base();
  self_time_subtraction();
  if (failures == 0) std::fprintf(stderr, "perfbench self-test: ok\n");
  return failures == 0 ? 0 : 1;
}
