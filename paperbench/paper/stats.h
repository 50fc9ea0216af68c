// Small measurement helpers for bench_paper: order statistics, process CPU
// time and memory, and the host description every output carries.

#pragma once

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/simd.h"

namespace deepbase {
namespace paperbench {

/// Linear-interpolated quantile (the "inclusive" definition), q in [0, 1].
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of the whole process (every thread).
inline double ProcessCpuSeconds() {
  return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

/// CPU seconds of the calling thread.
inline double ThreadCpuSeconds() {
  return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/// MiB the program holds in malloc (allocated and not yet freed), the
/// memory its data needs. Unlike RSS it leaves out what the allocator keeps
/// after frees, which depends on which threads happened to allocate.
inline double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Resident set size of the process in MiB (VmRSS).
inline double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0;
}

struct HostInfo {
  unsigned nproc = std::thread::hardware_concurrency();
  size_t simd_lanes = vec::kFloatLanes;
  const char* kernel = DEEPBASE_SIMD_ENABLED ? "simd" : "scalar";
#ifdef PAPERBENCH_BUILD_TYPE
  const char* build_type = PAPERBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
};

}  // namespace paperbench
}  // namespace deepbase
