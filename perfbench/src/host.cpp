#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {

double cpu_self_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_children_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image this one was exec'ed from (the launcher's).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {

std::atomic<std::uint64_t> g_sink{0};

// Integer work the optimiser cannot fold: an LCG chain whose result is
// published through an atomic.
void spin(std::uint64_t iters) {
  std::uint64_t x = iters;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + 1;
  g_sink.fetch_add(x, std::memory_order_relaxed);
}

double timed_spin(int threads, std::uint64_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(spin, iters);
  for (auto& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double effective_cores(int threads) {
  constexpr std::uint64_t kIters = 20'000'000;  // ~20 ms per copy
  double one = 1e9, many = 1e9;
  for (int round = 0; round < 3; ++round) {
    one = std::min(one, timed_spin(1, kIters));
    many = std::min(many, timed_spin(threads, kIters));
  }
  return static_cast<double>(threads) * one / many;
}

std::string tree_digest(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = 1469598103934665603ULL;
  const auto feed = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const fs::path& f : files) {
    feed(fs::relative(f, dir).generic_string());
    std::ifstream in(f, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    feed(body.str());
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return files.empty() ? "missing" : out;
}

}  // namespace perfbench
