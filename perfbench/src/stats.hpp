// Summary statistics the benchmark reports, kept apart from the workloads so
// perfbench_selftest can check the arithmetic on synthetic data.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise it is withheld.
constexpr std::size_t kMinTail = 10;

double median(std::vector<double> v);

/// Nearest-rank percentile (rank ceil(p * n), 1-based) of `v`, or nullopt
/// when fewer than kMinTail samples lie beyond that rank. 0 < p < 1.
std::optional<double> tail_percentile(std::vector<double> v, double p);

/// Samples beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// A ratio together with its base, so a reader can tell 1/2 from 500/1000.
struct Ratio {
  double num = 0;
  double den = 0;
  std::string num_what;  // "digests"
  std::string den_what;  // "executions"

  /// num / den; 0 when the base is empty.
  [[nodiscard]] double value() const;
  /// "0.4531 (116 digests / 256 executions)"
  [[nodiscard]] std::string describe() const;
};

}  // namespace perfbench
