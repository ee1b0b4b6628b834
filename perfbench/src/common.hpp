// Shared plumbing of the perfbench driver: options, the result record
// every workload fills, wall-clock and allocation probes, and a
// fixed-memory latency histogram.
//
// Everything here measures from outside the pufaging libraries: timings
// wrap calls into their public functions, and allocations are counted by
// the replacement global operator new in alloc_count.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of one correctness gate whose checked output is deliberately
  /// corrupted before the check runs (empty = none). Demonstrates that
  /// each gate fails when its output is wrong.
  std::string perturb;
};

/// One named metric value as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports back to main().
class Result {
 public:
  void set(const std::string& name, double value);
  /// Marks the run incorrect and prints `why` to stderr.
  void fail_gate(const std::string& gate, const std::string& why);
  /// Checks `ok`; on false, fails the named gate.
  void gate(const std::string& gate, bool ok, const std::string& why);

  bool correct() const { return correct_; }
  const std::map<std::string, double>& values() const { return values_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time the calling thread has run, in nanoseconds. Unlike the wall
/// clock it excludes time the thread was descheduled — including vCPU
/// time a shared host steals from the VM — so for a single-threaded loop
/// that never blocks it reads what the wall clock would on an unshared
/// core.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double seconds_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// CPU time (user + system) all threads of this process have used, in
/// seconds, including threads that already exited.
double process_cpu_s();

/// vCPU time the host has stolen from this machine since boot, summed
/// over its CPUs, in seconds; 0 where the kernel does not report steal.
/// A multi-threaded wall-time measurement subtracts the steal during it,
/// divided by the CPU count, to stay comparable between a quiet and a
/// busy host.
double stolen_cpu_s();

/// Worker threads a workload may use: 4, or fewer on a smaller machine.
inline std::size_t worker_threads() {
  return std::min<std::size_t>(
      4, std::max(1U, std::thread::hardware_concurrency()));
}

/// Heap allocations made so far by the calling thread (counted by the
/// replacement operator new).
std::uint64_t thread_allocs();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Median of a sample (copied; the input keeps its order).
double median(std::vector<double> values);

/// Exact quantile of a sample by the nearest-rank rule.
double quantile(std::vector<double> values, double q);

/// Log-linear histogram of nanosecond durations: 64 linear sub-buckets
/// per power of two (at most ~1.6% relative error), fixed memory, so a
/// long run records every sample without growing.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  /// Upper edge of the bucket holding quantile q, in nanoseconds.
  double quantile_ns(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static std::size_t bucket_of(std::uint64_t ns);
  static double upper_edge(std::size_t bucket);

  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

/// The workloads (each fills `result` and returns normally; gates that
/// fail mark the result incorrect).
void run_campaign_workload(const Options& options, Result& result);
void run_authd_workload(const Options& options, bool adversarial,
                        Result& result);

}  // namespace perfbench
