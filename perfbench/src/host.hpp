// What a run records about the host and the build, so its numbers can be
// read on a throttled or shared machine: CPU time beside wall time, peak
// memory, how many cores the host really delivers, and which sources ran.
#pragma once

#include <string>

namespace perfbench {

/// CPU seconds of this process (all threads).
double cpu_self_s();
/// CPU seconds of reaped child processes (user + system).
double cpu_children_s();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// Effective parallel cores: `threads` copies of a fixed spin loop run
/// together, against one copy alone (best of a few rounds). 4.0 on an idle
/// 4-core host; lower when the host is shared or throttled.
double effective_cores(int threads);

/// FNV-1a 64 over the relative paths and contents of every file under
/// `dir`, sorted by path — names the sources when there is no git checkout.
std::string tree_digest(const std::string& dir);

}  // namespace perfbench
