#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<double> tail_percentile(std::vector<double> v, double p) {
  if (samples_beyond(v.size(), p) < kMinTail) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

double Ratio::value() const { return den > 0 ? num / den : 0; }

std::string Ratio::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.4f (%.0f %s / %.0f %s)", value(), num,
                num_what.c_str(), den, den_what.c_str());
  return buf;
}

}  // namespace perfbench
