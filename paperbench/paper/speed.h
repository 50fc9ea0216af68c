// Host speed for bench_paper. The 4-vCPU host this benchmark was defined
// on changes speed by up to 1.6x over seconds to minutes, with the load of
// its neighbours (the cores run slower, and at times the hypervisor takes
// them away), and every time the benchmark measures moves with it. A run
// therefore stops its load at op boundaries every so often and times a
// fixed computation that uses none of the library's code — float math
// over a cache-resident array and passes over a 1 MiB buffer, on as many
// threads as the load uses, all at once. Times are reported scaled by
// SpeedScale(the run's median probe time): about seconds at the speed the
// host had while the benchmark was defined.
//
// A probe thread's time is its wall time less the time it sat runnable
// waiting for a CPU (the kernel's schedstat run_delay), so work the
// program still runs during a stop (a background thread, a spinning pool)
// cannot stretch the probe by taking its cores; a slower or descheduled
// vCPU stretches the probe and the load alike. (Thread CPU time was tried
// and tracked the load worse: the kernel leaves the time the hypervisor
// takes out of it.)
// What such work can still do — share caches or a core's sibling with the
// probe — shows as probe interference: the CPU the rest of the process
// used while probes ran, as a share of the probes' own. It is ~0.02 when
// the program is idle between ops, and the run warns when it is not.

#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "paper/stats.h"
#include "util/trace.h"

namespace deepbase {
namespace paperbench {

/// The probe's time at the host's usual speed when the benchmark was
/// defined. Fixed: changing it rescales every reported time.
constexpr double kReferenceProbeS = 1.8e-3;

/// Times are scaled by the probe's slowdown raised to this power, not by
/// the slowdown itself: the workloads keep one or two of the probe's four
/// cores busy, or wait on sockets, and feel about three quarters of its
/// swings. Fit over ~380 runs of all four workloads (eleven sets of six to
/// ten seeds): the widest scaled spread (IQR / median) of a timing metric
/// per workload and set averaged 8.1 % at 0.75, against 8.8 % at 1 and
/// 9.7 % at 0.5.
constexpr double kProbeExponent = 0.75;

/// The factor that turns seconds measured while the probe took `probe_s`
/// into seconds at the reference speed.
inline double SpeedScale(double probe_s) {
  return std::pow(kReferenceProbeS / probe_s, kProbeExponent);
}

class SpeedProbe {
 public:
  explicit SpeedProbe(size_t threads) : threads_(threads) {
    for (size_t t = 0; t < threads; ++t) {
      compute_.emplace_back(kComputeFloats, 1.0f + static_cast<float>(t));
      stream_.emplace_back(kStreamFloats, 0.5f);
    }
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// `n` probes back to back; returns their median and keeps them.
  double Measure(int n) {
    const double process0 = ProcessCpuSeconds();
    const double caller0 = ThreadCpuSeconds();
    double own_s = 0;
    std::vector<double> times;
    for (int i = 0; i < n; ++i) times.push_back(Once(&own_s));
    own_s += ThreadCpuSeconds() - caller0;
    own_cpu_s_ += own_s;
    other_cpu_s_ += std::max(0.0, ProcessCpuSeconds() - process0 - own_s);
    samples_.insert(samples_.end(), times.begin(), times.end());
    return Median(times);
  }

  /// Probes since the last Reset (all of one phase).
  const std::vector<double>& samples() const { return samples_; }
  /// CPU seconds the probe threads (and the thread running them) took
  /// since the last Reset.
  double cpu_s() const { return own_cpu_s_; }
  /// CPU seconds the rest of the process took while probes ran, as a
  /// share of cpu_s().
  double interference() const {
    return own_cpu_s_ > 0 ? other_cpu_s_ / own_cpu_s_ : 0;
  }
  void Reset() {
    samples_.clear();
    own_cpu_s_ = 0;
    other_cpu_s_ = 0;
  }

 private:
  static constexpr size_t kComputeFloats = 16 * 1024;  // 64 KiB
  static constexpr size_t kStreamFloats = 256 * 1024;  // 1 MiB
  static constexpr int kComputeRounds = 8;
  static constexpr int kStreamRounds = 16;

  /// The fixed work on every thread at once; returns the mean per-thread
  /// seconds of the work (less run delay) and adds the threads' whole CPU
  /// to `own_s`.
  double Once(double* own_s) {
    std::vector<double> secs(threads_), own(threads_);
    std::vector<std::thread> pool;
    std::atomic<size_t> ready{0};
    for (size_t t = 0; t < threads_; ++t) {
      pool.emplace_back([&, t] {
        const double start = ThreadCpuSeconds();
        const int schedstat = open("/proc/thread-self/schedstat", O_RDONLY);
        ready.fetch_add(1);
        while (ready.load() < threads_) {
        }
        const int64_t delay0 = RunDelayNs(schedstat);
        const int64_t t0 = TraceNowNs();
        sink_.fetch_add(Work(&compute_[t], stream_[t]));
        const int64_t t1 = TraceNowNs();
        const int64_t delay1 = RunDelayNs(schedstat);
        if (schedstat >= 0) close(schedstat);
        secs[t] = static_cast<double>(t1 - t0 - (delay1 - delay0)) * 1e-9;
        own[t] = ThreadCpuSeconds() - start;
      });
    }
    for (std::thread& t : pool) t.join();
    double mean = 0;
    for (size_t t = 0; t < threads_; ++t) {
      mean += secs[t] / static_cast<double>(threads_);
      *own_s += own[t];
    }
    return mean;
  }

  /// Nanoseconds the calling thread has spent runnable but waiting for a
  /// CPU, from its open /proc/thread-self/schedstat; 0 where the kernel
  /// does not report it (the probe is then plain wall time).
  static int64_t RunDelayNs(int fd) {
    char buf[128];
    const ssize_t n = fd < 0 ? -1 : pread(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    unsigned long long on_cpu = 0, delay = 0;
    return std::sscanf(buf, "%llu %llu", &on_cpu, &delay) == 2
               ? static_cast<int64_t>(delay)
               : 0;
  }

  static double Work(std::vector<float>* a, const std::vector<float>& b) {
    std::vector<float>& v = *a;
    for (int r = 0; r < kComputeRounds; ++r) {
      for (float& x : v) x = std::tanh(x * 0.75f + 0.1f);
    }
    double s = v[0];
    for (int r = 0; r < kStreamRounds; ++r) {
      for (size_t i = 0; i < b.size(); i += 16) s += b[i];
    }
    return s;
  }

  size_t threads_;
  std::vector<std::vector<float>> compute_;
  std::vector<std::vector<float>> stream_;
  std::vector<double> samples_;
  double own_cpu_s_ = 0;
  double other_cpu_s_ = 0;
  std::atomic<double> sink_{0};
};

/// Stops a closed loop's clients at op boundaries every `every_ns` and
/// probes the host's speed once every client is idle. Each client calls
/// Between() before each op and Leave() when its loop ends. With several
/// clients a stop also drains them: the first to arrive waits for the
/// slowest to finish its op, so their time blocked here is reported.
class ProbeGate {
 public:
  static constexpr int kProbesPerStop = 3;

  ProbeGate(SpeedProbe* probe, size_t clients, int64_t every_ns)
      : probe_(probe),
        clients_(clients),
        every_ns_(every_ns),
        last_ns_(TraceNowNs()) {}
  ProbeGate(const ProbeGate&) = delete;
  ProbeGate& operator=(const ProbeGate&) = delete;

  void Between() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!requested_ && TraceNowNs() - last_ns_ >= every_ns_) requested_ = true;
    if (!requested_) return;
    const int64_t arrived = TraceNowNs();
    const uint64_t epoch = epoch_;
    ++waiting_;
    if (waiting_ == clients_) {
      ProbeLocked();
    } else {
      cv_.wait(lock, [&] { return epoch_ != epoch; });
    }
    blocked_ns_ += TraceNowNs() - arrived;
  }

  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --clients_;
    if (requested_ && waiting_ > 0 && waiting_ == clients_) ProbeLocked();
  }

  /// Stops the clients at their next op boundaries, as for a probe, and
  /// runs `at_stop` once every one of them is idle, before probing.
  void StopSoon(std::function<void()> at_stop) {
    std::lock_guard<std::mutex> lock(mu_);
    at_stop_ = std::move(at_stop);
    requested_ = true;
  }

  /// Client-seconds spent in Between() waiting for a stop to drain and
  /// for its probes.
  double blocked_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(blocked_ns_) * 1e-9;
  }

 private:
  /// Every remaining client is waiting: probe, then release them.
  void ProbeLocked() {
    if (at_stop_) {
      at_stop_();
      at_stop_ = nullptr;
    }
    probe_->Measure(kProbesPerStop);
    requested_ = false;
    waiting_ = 0;
    last_ns_ = TraceNowNs();
    ++epoch_;
    cv_.notify_all();
  }

  SpeedProbe* probe_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t clients_;       // guarded by mu_
  size_t waiting_ = 0;   // guarded by mu_
  bool requested_ = false;
  std::function<void()> at_stop_;  // guarded by mu_
  int64_t every_ns_;
  int64_t last_ns_;
  uint64_t epoch_ = 0;
  int64_t blocked_ns_ = 0;  // guarded by mu_
};

}  // namespace paperbench
}  // namespace deepbase
