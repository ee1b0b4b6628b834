// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--perturb GATE]
//
// Runs one workload (campaign-nominal, authd-steady, authd-adversarial),
// checks its outputs, and prints human-readable detail on stderr and, as
// the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, measured by timing the calls into each module's public
// functions from this driver. A metric of a layer the workload leaves
// idle reads 0. --perturb corrupts the output one correctness gate
// checks, to show that the gate fails; the run then exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "common.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},    {"answered_frac", "fraction"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"silicon.sample.busy_s", "s"},
    {"silicon.sample.ns_per_cell", "ns"},
    {"silicon.sample.allocs_per_call", "count"},
    {"silicon.saturated_cell_frac", "fraction"},
    {"silicon.age.busy_s", "s"},
    {"analysis.accumulate.busy_s", "s"},
    {"analysis.accumulate.ns_per_measurement", "ns"},
    {"tilecol.fold.s", "s"},
    {"store.persist.s", "s"},
    {"store.persist.bytes", "bytes"},
    {"store.persist.syscalls", "count"},
    {"testbed.month.wall_s_p50", "s"},
    {"testbed.pool.idle_frac", "fraction"},
    {"testbed.allocs_per_powerup", "count"},
    {"authd.ingest.busy_s", "s"},
    {"authd.ingest.ns_per_frame", "ns"},
    {"authd.pump.busy_s", "s"},
    {"authd.pump.batch_us_p50", "us"},
    {"authd.pump.batch_us_p99", "us"},
    {"authd.output.busy_s", "s"},
    {"authd.driver.busy_s", "s"},
    {"authd.queue.wait_us_p99", "us"},
    {"authd.allocs_per_request", "count"},
    {"authd.overhead_ns_per_request", "ns"},
    {"authd.wire.decode.ns_per_frame", "ns"},
    {"authd.wire.encode.ns_per_frame", "ns"},
    {"authd.limiter.ns_per_acquire_empty", "ns"},
    {"authd.limiter.ns_per_acquire_full", "ns"},
    {"authd.limiter.tracked", "count"},
    {"authd.lockout.tracked", "count"},
    {"authd.lockout.wal_appends", "count"},
    {"auth.decide.ns_per_request", "ns"},
    {"auth.enroll.s", "s"},
    {"auth.frr", "fraction"},
    {"auth.corrected_bits_per_accept", "count"},
    {"trace.accounting_gap_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload campaign-nominal|authd-steady|"
               "authd-adversarial --seed N --seconds S --trace 0|1 "
               "[--perturb GATE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, nullptr, 0);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--perturb") {
        o.perturb = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(o.seconds > 0.0) || o.seconds > 600.0) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

}  // namespace

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

void Result::fail_gate(const std::string& gate, const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "GATE FAILED [%s]: %s\n", gate.c_str(), why.c_str());
}

void Result::gate(const std::string& gate, bool ok, const std::string& why) {
  if (!ok) {
    fail_gate(gate, why);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double stolen_cpu_s() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...", in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) {
    return 0.0;
  }
  std::istringstream fields(line.substr(4));
  double value = 0.0;
  for (int i = 0; i < 8 && (fields >> value); ++i) {
  }
  return fields ? value / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns < kSub) {
    return static_cast<std::size_t>(ns);
  }
  const int top = 63 - __builtin_clzll(ns);  // >= kSubBits
  const int shift = top - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(ns >> shift) - kSub;
  return static_cast<std::size_t>(shift + 1) * kSub + sub;
}

double LatencyHistogram::upper_edge(std::size_t bucket) {
  if (bucket < kSub) {
    return static_cast<double>(bucket + 1);
  }
  const std::size_t shift = bucket / kSub - 1;
  const std::size_t sub = bucket % kSub;
  return std::ldexp(static_cast<double>(kSub + sub + 1),
                    static_cast<int>(shift));
}

void LatencyHistogram::record(std::uint64_t ns) {
  buckets_[std::min(bucket_of(ns), buckets_.size() - 1)] += 1;
  count_ += 1;
}

double LatencyHistogram::quantile_ns(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::ceil(q * static_cast<double>(count_));
  const std::uint64_t target =
      rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= target) {
      return upper_edge(b);
    }
  }
  return upper_edge(buckets_.size() - 1);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "campaign-nominal") {
      run_campaign_workload(options, result);
    } else if (options.workload == "authd-steady") {
      run_authd_workload(options, false, result);
    } else if (options.workload == "authd-adversarial") {
      run_authd_workload(options, true, result);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::map<std::string, double> reported = result.values();
  for (const auto& [name, value] : reported) {
    const auto named = [&](const MetricSpec& spec) { return name == spec.name; };
    if (std::none_of(std::begin(kEndToEnd), std::end(kEndToEnd), named) &&
        std::none_of(std::begin(kPerLayer), std::end(kPerLayer), named)) {
      result.fail_gate("metrics", "unlisted metric " + name);
    }
  }
  if (!options.trace) {
    reported["peak_rss_mb"] = peak_rss_mb();
  }
  std::string metrics;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = reported.find(spec.name);
    double value = 0.0;
    if (it != reported.end()) {
      value = it->second;
    } else if (required) {
      result.fail_gate("metrics", std::string("missing ") + spec.name);
    }
    if (!std::isfinite(value)) {
      result.fail_gate("metrics", std::string("non-finite ") + spec.name);
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec, false);  // Idle layers of this workload read 0.
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec, true);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
