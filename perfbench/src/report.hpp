// Command-line arguments, the metric tables, and the result a run prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// The seed that reproduces the shipped inputs. (Seed 424242 is held back
/// for checking performance claims; see perfbench/README.md.)
constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string root = ".";       // repository checkout (inputs)
  std::string artifacts = ".";  // where journals and span dumps go
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed on every untraced run, in this order.
extern const std::vector<MetricDef> kEndToEnd;
/// Printed on every traced run; a layer a workload does not run reads 0.
extern const std::vector<MetricDef> kPerLayer;

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Record a metric of the run's table (kEndToEnd or kPerLayer); any
  /// other name is a bug in the benchmark and throws std::logic_error.
  void metric(const std::string& name, double value);
  /// A metric that is a ratio: records it and prints its base.
  void ratio(const std::string& name, const Ratio& r);
  /// A human-readable line, printed now (the JSON result comes last).
  void note(const std::string& line) const;
  /// A failed correctness check: the run's every cell counts as failed.
  void fail_check(const std::string& why);
  void cells(std::uint64_t attempted, std::uint64_t errored) {
    attempted_ += attempted;
    errored_ += errored;
  }

  /// Traced runs: give every per-layer metric the workload does not
  /// exercise the value 0, and say so.
  void fill_unmeasured();

  [[nodiscard]] bool correct() const { return checks_ok_ && errored_ == 0; }
  /// The last line of a run: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  [[nodiscard]] const std::vector<MetricDef>& table() const {
    return trace_ ? kPerLayer : kEndToEnd;
  }

  bool trace_;
  bool checks_ok_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t errored_ = 0;
  std::vector<std::pair<std::string, double>> values_;
};

/// Run one workload, filling `report`. Returns false on a usage error.
bool run_workload(const Args& args, Report& report);

}  // namespace perfbench
