// perfbench: libpfi's benchmark.
//
//   perfbench --workload <gmp-campaign|tcp-suite>
//             --seed N --seconds S --trace 0|1 [--root DIR] [--artifacts DIR]
//
// Runs one workload as a closed loop (one cell at a time), checks that its
// outputs are correct, prints notes that explain the run (revision, build,
// host calibration, sample counts, ratio bases) and, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 is the separate traced run
// that reports the per-layer metrics. See perfbench/README.md.
#include <cinttypes>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "host.hpp"
#include "spans.hpp"
#include "report.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--artifacts DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (v.empty() || *end != '\0' || args.seconds < 1) {
        return usage("--seconds takes a positive integer");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--root") {
      args.root = v;
    } else if (flag == "--artifacts") {
      args.artifacts = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) return usage("--workload is required");

  Report report(args.trace);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  char line[256];
  std::snprintf(line, sizeof line,
                "# perfbench %s seed=%" PRIu64 " seconds=%d trace=%d",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0);
  report.note(line);
  std::snprintf(line, sizeof line,
                "# revision %s, src digest %s, build %s", PFI_GIT_REV,
                tree_digest(args.root + "/src").c_str(), PFI_BUILD_TYPE);
  report.note(line);
  const double cores = effective_cores(static_cast<int>(hw));
  std::snprintf(line, sizeof line,
                "# host: %u hardware threads, %.2f effective cores "
                "(%u-thread vs 1-thread spin)",
                hw, cores, hw);
  report.note(line);
  if (args.trace) report.metric("host.effective_cores", cores);

  const double wall0 = static_cast<double>(now_ns()) * 1e-9;
  const double cpu0 = cpu_self_s() + cpu_children_s();
  if (!run_workload(args, report)) {
    return usage(("unknown workload " + args.workload).c_str());
  }
  std::snprintf(line, sizeof line,
                "# process: wall %.3f s, cpu %.3f s (children included), "
                "peak rss %.1f MiB",
                static_cast<double>(now_ns()) * 1e-9 - wall0,
                cpu_self_s() + cpu_children_s() - cpu0, peak_rss_mb());
  report.note(line);
  std::printf("%s\n", report.json().c_str());
  return 0;
}
