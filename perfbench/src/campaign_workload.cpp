// campaign-nominal: the paper protocol — run_campaign over the paper's
// 16-board fleet, months 0..24, 1000 power-ups per month of the 8192-bit
// window, nominal 25 C / 5 V, fault-free, persisting every month to a
// MeasurementStore on a zero-fault in-memory FaultFs.
//
// The fleet is always the paper-calibrated one (FleetConfig's default
// seed): the Table I bands the run is checked against are calibrated to
// that fleet, and about a third of other fleet seeds miss one of the
// worst-case bands. The workload is therefore the same for every --seed.
//
// Untraced run: whole campaigns back to back for the time budget (at
// least one). Device-months/s comes from the run_campaign wall time, and
// latency is what a campaign's user waits for: submission to the final
// durable snapshot, i.e. the wall time of each campaign.
//
// Traced run: one untraced run_campaign as the reference, then a replica
// of its fault-free month loop built from the same public calls
// (make_fleet, SramDevice::measure / age_months, DeviceMonthAccumulator,
// fold_fleet_month, checkpoint_to_jsonl + MeasurementStore) with every
// call timed. The replica must reproduce the reference's series and store
// bytes bit for bit, and its stage times plus pool idle time must add up
// to threads x wall time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/streaming_fold.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/thread_pool.hpp"
#include "silicon/device_factory.hpp"
#include "store/faultfs.hpp"
#include "store/store.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"

namespace perfbench {
namespace {

using namespace pufaging;

constexpr const char* kStoreDir = "campaign";
constexpr std::size_t kSetupRepeats = 11;

CampaignConfig nominal_config(Vfs* vfs) {
  CampaignConfig config;  // Paper fleet, 24 months, 1000/month, 25 C.
  config.threads = worker_threads();
  config.checkpoint_dir = kStoreDir;
  config.vfs = vfs;
  return config;
}

std::string series_digest(const std::vector<FleetMonthMetrics>& series) {
  Sha256 hash;
  for (const FleetMonthMetrics& m : series) {
    const std::string line = fleet_month_to_json(m).dump();
    hash.update(reinterpret_cast<const std::uint8_t*>(line.data()),
                line.size());
  }
  return Sha256::to_hex(hash.finalize());
}

std::map<std::string, std::string> store_files(FaultFs& fs) {
  std::map<std::string, std::string> files;
  for (const std::string& name : fs.list_dir(kStoreDir)) {
    files[name] = fs.read_file(std::string(kStoreDir) + "/" + name);
  }
  return files;
}

/// The Table I assertions of tests/silicon/calibration_test.cpp (day-0
/// and two-year trajectory bands) applied to one campaign series.
void check_table1(std::vector<FleetMonthMetrics> s, const Options& options,
                  Result& result) {
  if (s.size() != 25) {
    result.fail_gate("table1", "series has " + std::to_string(s.size()) +
                                   " months, want 25");
    return;
  }
  if (options.perturb == "table1") {
    s.back().wchd_avg += 0.01;
  }
  const auto near = [&](const char* what, double got, double want,
                        double tol) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s = %.6f, want %.6f +- %.6f", what, got,
                  want, tol);
    result.gate("table1", std::fabs(got - want) <= tol, buf);
  };
  const auto holds = [&](const char* what, bool ok) {
    result.gate("table1", ok, what);
  };
  const auto rel = [](double start, double end) { return end / start - 1.0; };
  const FleetMonthMetrics& d0 = s.front();
  const FleetMonthMetrics& end = s.back();
  near("day0 wchd_avg", d0.wchd_avg, 0.0249, 0.0015);
  near("day0 wchd_wc", d0.wchd_wc, 0.0272, 0.0035);
  holds("day0 wchd_wc > wchd_avg", d0.wchd_wc > d0.wchd_avg);
  near("day0 fhw_avg", d0.fhw_avg, 0.6270, 0.01);
  near("day0 fhw_wc", d0.fhw_wc, 0.6578, 0.012);
  near("day0 stable_avg", d0.stable_avg, 0.859, 0.012);
  near("day0 stable_wc", d0.stable_wc, 0.872, 0.012);
  near("day0 noise_entropy_avg", d0.noise_entropy_avg, 0.0305, 0.002);
  near("day0 noise_entropy_wc", d0.noise_entropy_wc, 0.0273, 0.003);
  near("day0 bchd_avg", d0.bchd_avg, 0.4679, 0.005);
  near("day0 bchd_wc", d0.bchd_wc, 0.4431, 0.012);
  holds("day0 bchd_wc > 0.40", d0.bchd_wc > 0.40);
  holds("day0 bchd_wc > 10 wchd_wc", d0.bchd_wc > 10.0 * d0.wchd_wc);
  near("day0 puf_entropy", d0.puf_entropy, 0.6492, 0.01);
  near("end wchd_avg", end.wchd_avg, 0.0297, 0.002);
  near("wchd_avg change", rel(d0.wchd_avg, end.wchd_avg), 0.193, 0.05);
  holds("wchd growth sub-linear",
        s[12].wchd_avg - s[0].wchd_avg > 1.2 * (s[24].wchd_avg - s[12].wchd_avg));
  near("end noise_entropy_avg", end.noise_entropy_avg, 0.0364, 0.0025);
  near("noise_entropy change",
       rel(d0.noise_entropy_avg, end.noise_entropy_avg), 0.193, 0.05);
  near("end stable_avg", end.stable_avg, 0.837, 0.012);
  near("stable change", rel(d0.stable_avg, end.stable_avg), -0.0249, 0.01);
  near("fhw change", rel(d0.fhw_avg, end.fhw_avg), 0.0, 0.005);
  near("bchd change", rel(d0.bchd_avg, end.bchd_avg), 0.0, 0.01);
  near("puf_entropy change", rel(d0.puf_entropy, end.puf_entropy), 0.0,
       0.01);
  for (std::size_t d = 0; d < d0.devices.size(); ++d) {
    result.gate("table1",
                end.devices[d].wchd_mean > d0.devices[d].wchd_mean,
                "device " + std::to_string(d) + " WCHD did not grow");
  }
}

/// CPU time of a fleet build plus store construction, repeated; returns
/// the median.
double measure_setup(const CampaignConfig& config) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const double t0 = process_cpu_s();
    const std::vector<SramDevice> fleet = make_fleet(config.fleet);
    FaultFs fs;
    MeasurementStore store(fs, kStoreDir);
    samples.push_back(process_cpu_s() - t0);
    if (fleet.size() != config.fleet.device_count) {
      throw std::runtime_error("make_fleet: wrong fleet size");
    }
  }
  return median(samples);
}

struct CampaignRun {
  CampaignResult result;
  double wall_s = 0.0;  ///< Less the host steal during the run.
  std::string digest;
};

/// One untraced run_campaign on `fs`; its wall time less the host steal
/// during it (divided by the CPU count).
CampaignRun timed_campaign(FaultFs& fs) {
  const double cpus =
      static_cast<double>(std::max(1U, std::thread::hardware_concurrency()));
  CampaignRun run;
  const double stolen0 = stolen_cpu_s();
  const std::uint64_t t0 = now_ns();
  run.result = run_campaign(nominal_config(&fs));
  run.wall_s = seconds_between(t0, now_ns()) -
               (stolen_cpu_s() - stolen0) / cpus;
  run.digest = series_digest(run.result.series);
  return run;
}

/// Gates every campaign of a run shares: complete, persisted every
/// month, recoverable from its store to the same series.
void check_run(const CampaignRun& run, FaultFs& fs, Result& result) {
  const CampaignResult& r = run.result;
  result.gate("campaign", r.completed, "campaign did not complete");
  result.gate("campaign", !r.persistence.degraded(),
              "store incidents during a fault-free campaign");
  result.gate("campaign", r.persistence.snapshots == 26,
              "expected 26 snapshot publications, got " +
                  std::to_string(r.persistence.snapshots));
  MeasurementStore store(fs, kStoreDir);
  const CampaignCheckpoint ckpt = checkpoint_from_store(store);
  result.gate("campaign",
              ckpt.next_month == 25 && series_digest(ckpt.series) == run.digest,
              "store does not recover the campaign series");
}

// --- traced replica ---------------------------------------------------------

struct DeviceStages {
  std::uint64_t task_ns = 0;
  std::uint64_t sample_ns = 0;
  std::uint64_t sample_calls = 0;
  std::uint64_t sample_allocs = 0;
  std::uint64_t accumulate_ns = 0;
  std::uint64_t age_ns = 0;
  std::uint64_t task_allocs = 0;
};

struct ReplicaRun {
  std::vector<FleetMonthMetrics> series;
  double wall_s = 0.0;
  double build_s = 0.0;
  double fold_s = 0.0;
  double persist_s = 0.0;
  double parallel_wall_s = 0.0;
  double task_s = 0.0;
  double month_wall_p50_s = 0.0;
  DeviceStages totals;
  std::uint64_t main_allocs = 0;
  double saturated_frac = 0.0;
  std::size_t threads = 1;
};

double saturated_cell_fraction(const std::vector<SramDevice>& fleet,
                               const OperatingPoint& op) {
  std::uint64_t saturated = 0;
  std::uint64_t cells = 0;
  for (const SramDevice& device : fleet) {
    for (std::size_t i = 0; i < device.puf_window_bits(); ++i) {
      const std::uint64_t t = bernoulli_threshold(device.one_probability(i, op));
      saturated += (t == 0 || t == UINT64_MAX) ? 1 : 0;
      ++cells;
    }
  }
  return static_cast<double>(saturated) / static_cast<double>(cells);
}

ReplicaRun run_replica(const CampaignConfig& config, Vfs& vfs) {
  ReplicaRun out;
  const OperatingPoint op = config.operating_point;
  const FoldOptions fold_options{
      tilecol::TileShape{config.tile_rows, config.tile_cols}};
  const std::uint64_t t_start = now_ns();

  std::vector<SramDevice> fleet = make_fleet(config.fleet);
  const std::size_t n = fleet.size();
  StoreOptions store_opts;
  store_opts.fsync_every = config.fsync_every;
  store_opts.wal_segment_bytes = config.wal_segment_bytes;
  MeasurementStore store(vfs, config.checkpoint_dir, store_opts);
  const std::uint64_t t_built = now_ns();
  out.build_s = seconds_between(t_start, t_built);

  // Input property, read off the clock: share of window cells whose
  // Bernoulli threshold saturates at month 0.
  out.saturated_frac = saturated_cell_fraction(fleet, op);
  const std::uint64_t t_resume = now_ns();
  const std::uint64_t alloc0 = thread_allocs();

  std::vector<BitVector> references(n);
  std::vector<BoardFaultState> fault_states(n);
  const std::string fault_plan_json = fault_plan_to_json(config.faults).dump();
  const auto checkpoint = [&](std::size_t next_month) {
    CampaignCheckpoint ckpt;
    ckpt.next_month = next_month;
    ckpt.fleet_seed = config.fleet.seed;
    ckpt.device_count = n;
    ckpt.months = config.months;
    ckpt.measurements_per_month = config.measurements_per_month;
    ckpt.fault_plan_json = fault_plan_json;
    for (const SramDevice& device : fleet) {
      DeviceCheckpoint dev;
      dev.device_id = device.id();
      dev.rng_state = device.measurement_rng_state();
      dev.measurement_count = device.measurement_count();
      ckpt.devices.push_back(dev);
    }
    ckpt.fault_states = fault_states;
    ckpt.references = references;
    ckpt.series = out.series;
    return ckpt;
  };
  const auto persist = [&](std::size_t next_month) {
    const std::uint64_t t0 = now_ns();
    store.publish_snapshot(checkpoint_to_jsonl(checkpoint(next_month)));
    out.persist_s += seconds_between(t0, now_ns());
  };
  persist(0);  // The baseline snapshot before month 0.

  out.threads = std::min(ThreadPool::resolve_thread_count(config.threads), n);
  std::optional<ThreadPool> pool;
  if (out.threads > 1) {
    pool.emplace(out.threads);
  }
  std::vector<DeviceStages> stages(n);
  std::vector<double> month_walls;
  for (std::size_t month = 0; month <= config.months; ++month) {
    const std::uint64_t month_t0 = now_ns();
    std::vector<DeviceMonthMetrics> device_metrics(n);
    const bool age_after = month < config.months;
    const auto task = [&](std::size_t d) {
      DeviceStages& st = stages[d];
      const std::uint64_t task_t0 = now_ns();
      const std::uint64_t task_a0 = thread_allocs();
      SramDevice& device = fleet[d];
      std::uint64_t a0 = thread_allocs();
      BitVector first = device.measure(op);
      std::uint64_t t1 = now_ns();
      st.sample_allocs += thread_allocs() - a0;
      st.sample_ns += t1 - task_t0;
      if (month == 0) {
        references[d] = first;
      }
      DeviceMonthAccumulator acc(device.id(), references[d]);
      acc.add(first);
      std::uint64_t t = now_ns();
      st.accumulate_ns += t - t1;
      for (std::size_t m = 1; m < config.measurements_per_month; ++m) {
        a0 = thread_allocs();
        const BitVector pattern = device.measure(op);
        t1 = now_ns();
        st.sample_allocs += thread_allocs() - a0;
        acc.add(pattern);
        const std::uint64_t t2 = now_ns();
        st.sample_ns += t1 - t;
        st.accumulate_ns += t2 - t1;
        t = t2;
      }
      device_metrics[d] = acc.finalize();
      std::uint64_t t3 = now_ns();
      st.accumulate_ns += t3 - t;
      st.sample_calls += config.measurements_per_month;
      if (age_after) {
        device.age_months(1.0, op);
        const std::uint64_t t4 = now_ns();
        st.age_ns += t4 - t3;
        t3 = t4;
      }
      st.task_allocs += thread_allocs() - task_a0;
      st.task_ns += t3 - task_t0;
    };
    const std::uint64_t par_t0 = now_ns();
    if (pool) {
      pool->parallel_for(0, n, task);
    } else {
      for (std::size_t d = 0; d < n; ++d) {
        task(d);
      }
    }
    const std::uint64_t par_t1 = now_ns();
    out.parallel_wall_s += seconds_between(par_t0, par_t1);
    out.series.push_back(fold_fleet_month(std::move(device_metrics),
                                          static_cast<double>(month),
                                          fold_options));
    out.fold_s += seconds_between(par_t1, now_ns());
    persist(month + 1);
    month_walls.push_back(seconds_between(month_t0, now_ns()));
  }
  {
    const std::uint64_t t0 = now_ns();
    store.close();
    out.persist_s += seconds_between(t0, now_ns());
  }
  const std::uint64_t t_end = now_ns();
  out.wall_s = seconds_between(t_start, t_end) -
               seconds_between(t_built, t_resume);
  out.month_wall_p50_s = median(month_walls);
  out.main_allocs = thread_allocs() - alloc0;
  for (const DeviceStages& st : stages) {
    out.totals.task_ns += st.task_ns;
    out.totals.sample_ns += st.sample_ns;
    out.totals.sample_calls += st.sample_calls;
    out.totals.sample_allocs += st.sample_allocs;
    out.totals.accumulate_ns += st.accumulate_ns;
    out.totals.age_ns += st.age_ns;
    out.totals.task_allocs += st.task_allocs;
  }
  out.task_s = static_cast<double>(out.totals.task_ns) * 1e-9;
  return out;
}

void run_traced(const Options& options, Result& result) {
  // Reference: one untraced run_campaign.
  FaultFs ref_fs;
  const CampaignRun ref = timed_campaign(ref_fs);
  const std::map<std::string, std::string> ref_files = store_files(ref_fs);
  check_table1(ref.result.series, options, result);

  // Traced replica on its own store.
  FaultFs fs;
  const std::uint64_t syscalls0 = fs.syscalls();
  const std::uint64_t bytes0 = fs.bytes_written();
  const CampaignConfig config = nominal_config(&fs);
  const double cpus =
      static_cast<double>(std::max(1U, std::thread::hardware_concurrency()));
  const double stolen0 = stolen_cpu_s();
  const ReplicaRun rep = run_replica(config, fs);
  const double replica_stolen = (stolen_cpu_s() - stolen0) / cpus;
  const std::uint64_t syscalls = fs.syscalls() - syscalls0;
  const std::uint64_t bytes = fs.bytes_written() - bytes0;

  std::string replica_digest = series_digest(rep.series);
  std::map<std::string, std::string> files = store_files(fs);
  if (options.perturb == "replica-series") {
    replica_digest[0] = replica_digest[0] == '0' ? '1' : '0';
  }
  if (options.perturb == "replica-store" && !files.empty()) {
    files.begin()->second.back() ^= 0x01;
  }
  result.gate("replica", replica_digest == ref.digest,
              "replica series differs from run_campaign");
  result.gate("replica", files == ref_files,
              "replica store bytes differ from run_campaign");

  // Stage accounting: in-task stages run on the pool, fold/persist/build
  // on the calling thread while the pool idles.
  const double threads = static_cast<double>(rep.threads);
  const double capacity = threads * rep.wall_s;
  const double sample_s = static_cast<double>(rep.totals.sample_ns) * 1e-9;
  const double accumulate_s =
      static_cast<double>(rep.totals.accumulate_ns) * 1e-9;
  const double age_s = static_cast<double>(rep.totals.age_ns) * 1e-9;
  const double serial_s = rep.build_s + rep.fold_s + rep.persist_s;
  const double idle_s = (threads * rep.parallel_wall_s - rep.task_s) +
                        (threads - 1.0) * (rep.wall_s - rep.parallel_wall_s);
  const double accounted = sample_s + accumulate_s + age_s + serial_s + idle_s;
  const double gap = (capacity - accounted) / capacity;
  // Both walls less the steal during them, like the untraced figures.
  const double overhead = (rep.wall_s - replica_stolen) / ref.wall_s - 1.0;
  std::fprintf(stderr,
               "campaign trace: %zu threads, replica %.3f s vs untraced "
               "run_campaign %.3f s, both less steal (tracing overhead "
               "%+.2f%%)\n"
               "  sample %.3f s  accumulate %.3f s  age %.3f s  (thread-s)\n"
               "  build %.3f s  fold %.3f s  persist %.3f s  pool idle %.3f s\n"
               "  accounted %.3f of %.3f thread-s (gap %+.2f%%)\n",
               rep.threads, rep.wall_s - replica_stolen, ref.wall_s,
               overhead * 100.0, sample_s,
               accumulate_s, age_s, rep.build_s, rep.fold_s, rep.persist_s,
               idle_s, accounted, capacity, gap * 100.0);
  result.gate("accounting", std::fabs(gap) <= 0.05,
              "stage times leave " + std::to_string(gap * 100.0) +
                  "% of threads x wall unaccounted");

  const double calls = static_cast<double>(rep.totals.sample_calls);
  const double cells =
      calls * static_cast<double>(config.fleet.device.puf_window_bits);
  result.set("silicon.sample.busy_s", sample_s);
  result.set("silicon.sample.ns_per_cell",
             static_cast<double>(rep.totals.sample_ns) / cells);
  result.set("silicon.sample.allocs_per_call",
             static_cast<double>(rep.totals.sample_allocs) / calls);
  result.set("silicon.saturated_cell_frac", rep.saturated_frac);
  result.set("silicon.age.busy_s", age_s);
  result.set("analysis.accumulate.busy_s", accumulate_s);
  result.set("analysis.accumulate.ns_per_measurement",
             static_cast<double>(rep.totals.accumulate_ns) / calls);
  result.set("tilecol.fold.s", rep.fold_s);
  result.set("store.persist.s", rep.persist_s);
  result.set("store.persist.bytes", static_cast<double>(bytes));
  result.set("store.persist.syscalls", static_cast<double>(syscalls));
  result.set("testbed.month.wall_s_p50", rep.month_wall_p50_s);
  result.set("testbed.pool.idle_frac", idle_s / capacity);
  result.set("testbed.allocs_per_powerup",
             static_cast<double>(rep.totals.task_allocs + rep.main_allocs) /
                 calls);
  result.set("trace.accounting_gap_frac", gap);
  result.set("trace.overhead_frac", overhead);
  result.attempted = config.fleet.device_count * (config.months + 1);
}

void run_untraced(const Options& options, Result& result) {
  result.set("setup_s", measure_setup(nominal_config(nullptr)));

  std::vector<double> walls_s;
  std::uint64_t device_months = 0;
  std::uint64_t reported = 0;
  std::string first_digest;
  const std::uint64_t budget_start = now_ns();
  do {
    FaultFs fs;
    const CampaignRun run = timed_campaign(fs);
    if (walls_s.empty()) {
      first_digest = run.digest;
      check_table1(run.result.series, options, result);
    }
    result.gate("determinism", run.digest == first_digest,
                "campaign series differs between runs of one seed");
    check_run(run, fs, result);
    walls_s.push_back(run.wall_s);
    for (const FleetMonthMetrics& m : run.result.series) {
      device_months += m.devices_expected;
      reported += m.devices_reporting;
    }
  } while (seconds_between(budget_start, now_ns()) + walls_s.back() <=
           options.seconds);

  double wall_s = 0.0;
  for (const double w : walls_s) {
    wall_s += w;
  }
  const double rate = static_cast<double>(device_months) / wall_s;
  std::fprintf(stderr,
               "campaign-nominal: %zu campaign(s), %llu device-months in "
               "%.3f s = %.2f device_months_per_s\n",
               walls_s.size(), static_cast<unsigned long long>(device_months),
               wall_s, rate);
  result.set("throughput_per_s", rate);
  result.set("latency_p50_us", median(walls_s) * 1e6);
  result.set("latency_p99_us", quantile(walls_s, 0.99) * 1e6);
  result.set("answered_frac", static_cast<double>(reported) /
                                  static_cast<double>(device_months));
  result.attempted = device_months;
  result.failed = device_months - reported;
}

}  // namespace

void run_campaign_workload(const Options& options, Result& result) {
  if (options.trace) {
    run_traced(options, result);
  } else {
    run_untraced(options, result);
  }
}

}  // namespace perfbench
