// authd-steady and authd-adversarial: the sans-IO AuthDaemon under the
// `pufaging authd` default policy (rate limiter and lockout ladder on,
// one pump thread), driven in a closed loop over 4 pipelined connections
// by client slots that each wait for their previous answer — and, when
// refused, until the retry time the answer names.
//
//  - authd-steady: 2000 enrolled devices, one slot each. Requests are
//    aged, noisy genuine reads (years 0-2, fresh nonces, from
//    VirtualFleet::response_into); one in 32 is an impostor read claiming
//    the slot's device.
//  - authd-adversarial: the same traffic plus an impostor storm against a
//    few enrolled ids (64 slots walking their lockout ladders, persisted
//    through a store on an in-memory FaultFs) and a spray of never-seen
//    device ids. Before the clock starts, the spray fills RateLimiter to
//    its default max_tracked through the daemon, so every spray request
//    in the measured window forces an eviction.
//
// Virtual time: a FakeClock advanced by a fixed step per driver tick
// drives every policy decision, so decisions, refusals and the lockout
// state are a pure function of the seed and the tick count.
//
// Measured time: the daemon and its driver share one thread that never
// blocks, so throughput, latency and the traced stage times are read from
// that thread's CPU clock (thread_cpu_ns). On an unshared core this equals
// wall time; on a shared VM it leaves out vCPU time the host steals,
// which otherwise swamps run-to-run differences. The run still lasts
// --seconds of wall time.
//
// Checks: every response is well formed and carries the decision a direct
// authenticate_batch gives for its request; the daemon's
// decisions_sha256 equals the same witness computed in admission order;
// a replay of the first ticks repeats refusal counts and the lockout
// state_hash exactly; the corpus's FRR is > 0 and rises with age while
// FAR is 0; the lockout WAL recovers the live ladder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "auth/fleet_sim.hpp"
#include "auth/loadgen.hpp"
#include "auth/service.hpp"
#include "authd/daemon.hpp"
#include "authd/limiter.hpp"
#include "authd/wire.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/thread_pool.hpp"
#include "obs/clock.hpp"
#include "store/faultfs.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"

namespace perfbench {
namespace {

using namespace pufaging;
using authd::AuthDaemon;
using authd::ResponseStatus;

constexpr std::uint64_t kDevices = 2000;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kReadsPerDevice = 32;  ///< Last one is an impostor.
/// Corpus entries [0, kGenuineEntries) are the devices' own slots' reads.
constexpr std::size_t kGenuineEntries = kDevices * kReadsPerDevice;
constexpr std::size_t kStormIds = 8;
constexpr std::size_t kStormSlots = 64;
constexpr std::size_t kStormReadsPerSlot = 4;
constexpr std::size_t kWarmupSlots = 256;
constexpr std::uint64_t kTickNs = 5'000'000;  ///< Virtual time per tick.
/// The measured window's spray: one client sending a never-seen id every
/// kSprayGapNs of virtual time (~1 in 8000 requests). Each one forces an
/// eviction from the full limiter table; the gap keeps the scans to about
/// a quarter of the run, so the rest of admission still shows.
constexpr std::uint64_t kSprayGapNs = 32 * kTickNs;
constexpr std::uint64_t kReplayTicks = 32;
/// Ticks (1 s of virtual time) between lockout-store compactions.
constexpr std::uint64_t kCompactTicks = 200;
constexpr std::size_t kSetupRepeats = 11;
/// The measured run is cut into this many windows of equal wall time;
/// the end-to-end figures are medians over them, so a burst of host
/// interference moves one window, not the result.
constexpr std::size_t kWindows = 10;
constexpr const char* kLockoutDir = "lockouts";
constexpr std::size_t kResponseFrameBytes = authd::kFrameHeaderBytes + 12;
constexpr std::uint8_t kPending = 0xFF;

// Seed domains of the workload generator.
constexpr std::uint64_t kRootSeed = 0xA07D'BE4C'0000'0001ULL;
constexpr std::uint64_t kDomainFleet = 1;
constexpr std::uint64_t kDomainNonce = 2;
constexpr std::uint64_t kDomainStorm = 3;

enum class SlotKind : std::uint8_t { kGenuine, kStorm, kSpray };

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);  // The wire is little-endian, as is x86.
  return v;
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// --- the generated inputs -------------------------------------------------

/// Every pre-built request of a workload: the encoded frame, who it
/// claims to be, its packed read, and the decision a direct
/// authenticate_batch gives it.
struct Corpus {
  std::size_t words = 0;
  std::vector<std::string> frames;
  std::vector<std::uint64_t> claimed;
  std::vector<std::uint64_t> reads;  ///< `words` per entry.
  std::vector<std::int8_t> year;     ///< 0-2 genuine, -1 impostor.
  std::vector<auth::AuthDecision> reference;
  std::vector<std::uint64_t> spray_read;  ///< Payload every spray id sends.
  auth::AuthBatchStats genuine_stats;
};

std::uint64_t request_id(std::size_t slot, std::uint64_t entry) {
  return (static_cast<std::uint64_t>(slot) << 32) | (entry & 0xFFFFFFFFULL);
}

auth::VirtualFleetConfig fleet_config(std::uint64_t seed) {
  auth::VirtualFleetConfig config;
  config.seed = split_seed(kRootSeed, kDomainFleet, seed);
  return config;
}

/// Builds the corpus: per device kReadsPerDevice entries (reads aged 0, 1,
/// 2 years in turn, the last entry an impostor read from un-enrolled
/// silicon), then the storm slots' impostor reads. Reads come from
/// response_into with nonces no other read uses — never the enrollment
/// read.
Corpus build_corpus(const auth::VirtualFleet& fleet,
                    const auth::AuthService& service, std::uint64_t seed,
                    ThreadPool& pool) {
  Corpus c;
  c.words = fleet.words_per_response();
  const std::uint64_t nonce_base = split_seed(kRootSeed, kDomainNonce, seed);
  Xoshiro256StarStar pick(split_seed(kRootSeed, kDomainStorm, seed));
  std::vector<std::uint64_t> storm_ids;
  while (storm_ids.size() < kStormIds) {
    const std::uint64_t id = pick.below(kDevices);
    if (std::find(storm_ids.begin(), storm_ids.end(), id) == storm_ids.end()) {
      storm_ids.push_back(id);
    }
  }
  const std::size_t total = kGenuineEntries + kStormSlots * kStormReadsPerSlot;
  c.frames.resize(total);
  c.claimed.resize(total);
  c.reads.resize(total * c.words);
  c.year.resize(total);
  const auto fill = [&](std::size_t e, std::size_t slot, std::uint64_t entry,
                        std::uint64_t claimed, std::uint64_t silicon,
                        double years, std::int8_t year_tag) {
    std::uint64_t* read = c.reads.data() + e * c.words;
    fleet.response_into(silicon, years, nonce_base + e, read);
    authd::AuthRequestMsg msg;
    msg.request_id = request_id(slot, entry);
    msg.device_id = claimed;
    msg.response.assign(read, read + c.words);
    c.frames[e] = authd::encode_auth_request(msg);
    c.claimed[e] = claimed;
    c.year[e] = year_tag;
  };
  pool.parallel_for(0, kDevices, [&](std::size_t d) {
    for (std::size_t k = 0; k < kReadsPerDevice; ++k) {
      const std::size_t e = d * kReadsPerDevice + k;
      if (k + 1 == kReadsPerDevice) {
        fill(e, d, k, d, kDevices + d, static_cast<double>(k % 3), -1);
      } else {
        fill(e, d, k, d, d, static_cast<double>(k % 3),
             static_cast<std::int8_t>(k % 3));
      }
    }
  });
  pool.parallel_for(0, kStormSlots, [&](std::size_t j) {
    for (std::size_t r = 0; r < kStormReadsPerSlot; ++r) {
      const std::size_t e = kGenuineEntries + j * kStormReadsPerSlot + r;
      fill(e, kDevices + j, r, storm_ids[j % kStormIds],
           2 * kDevices + j * kStormReadsPerSlot + r, 1.0, -1);
    }
  });
  c.spray_read.resize(c.words);
  fleet.response_into(3 * kDevices, 0.0, nonce_base + total, c.spray_read.data());

  // Reference decisions: a direct authenticate_batch over every entry.
  c.reference.resize(total);
  constexpr std::size_t kBatch = 256;
  for (std::size_t begin = 0; begin < total; begin += kBatch) {
    const std::size_t count = std::min(kBatch, total - begin);
    std::vector<auth::AuthRequest> requests(count);
    for (std::size_t i = 0; i < count; ++i) {
      requests[i].device_id = c.claimed[begin + i];
      requests[i].response = c.reads.data() + (begin + i) * c.words;
    }
    const auth::AuthBatchStats stats = service.authenticate_batch(
        requests.data(), count, c.reference.data() + begin);
    if (begin < kGenuineEntries) {
      c.genuine_stats += stats;
    }
  }
  return c;
}

/// FRR per age and FAR over the corpus's reference decisions.
void check_corpus(Corpus& c, const Options& options, Result& result,
                  double* frr_out) {
  if (options.perturb == "frr-far") {
    c.reference[kReadsPerDevice - 1] = auth::AuthDecision::kAccept;
  }
  std::uint64_t genuine[3] = {};
  std::uint64_t rejected[3] = {};
  std::uint64_t impostors = 0;
  std::uint64_t false_accepts = 0;
  for (std::size_t e = 0; e < c.reference.size(); ++e) {
    const bool accepted = c.reference[e] == auth::AuthDecision::kAccept;
    if (c.year[e] < 0) {
      ++impostors;
      false_accepts += accepted ? 1 : 0;
    } else {
      const auto y = static_cast<std::size_t>(c.year[e]);
      ++genuine[y];
      rejected[y] += accepted ? 0 : 1;
    }
  }
  double frr[3];
  for (std::size_t y = 0; y < 3; ++y) {
    frr[y] = static_cast<double>(rejected[y]) / static_cast<double>(genuine[y]);
  }
  const double total_frr =
      static_cast<double>(rejected[0] + rejected[1] + rejected[2]) /
      static_cast<double>(genuine[0] + genuine[1] + genuine[2]);
  std::fprintf(stderr,
               "corpus: FRR year0 %.4f year1 %.4f year2 %.4f (all %.4f); "
               "FAR %llu/%llu; %.3f bits corrected per accept\n",
               frr[0], frr[1], frr[2], total_frr,
               static_cast<unsigned long long>(false_accepts),
               static_cast<unsigned long long>(impostors),
               static_cast<double>(c.genuine_stats.corrected_bits) /
                   static_cast<double>(c.genuine_stats.accepted));
  result.gate("frr-far", total_frr > 0.0, "FRR is 0 on aged noisy reads");
  result.gate("frr-far", frr[0] < frr[1] && frr[1] < frr[2],
              "FRR does not rise with age");
  result.gate("frr-far", false_accepts == 0, "an impostor was accepted");
  result.gate("frr-far", c.genuine_stats.corrected_bits > 0,
              "the decoder corrected no bits");
  *frr_out = total_frr;
}

// --- the daemon under test ------------------------------------------------

/// Service + daemon + (adversarial) lockout store, built the way
/// `pufaging authd` builds them. Pinned in place: the daemon holds
/// references into its siblings.
class DaemonStack {
 public:
  DaemonStack(const auth::VirtualFleet& fleet, bool adversarial)
      : clock_(1'000'000'000, 0) {
    ThreadPool pool(worker_threads());
    service_ = std::make_unique<auth::AuthService>(auth::AuthServiceConfig{});
    const double e0 = process_cpu_s();
    auth::enroll_fleet(*service_, fleet, pool);
    enroll_s_ = process_cpu_s() - e0;
    authd::DaemonConfig config;  // The `pufaging authd` defaults.
    config.clock = &clock_;
    daemon_ = std::make_unique<AuthDaemon>(*service_, config);
    if (adversarial) {
      fs_ = std::make_unique<FaultFs>();
      store_.emplace(*fs_, kLockoutDir);
      authd::LockoutLadder ladder =
          authd::load_lockouts(*store_, config.lockout);
      authd::publish_lockouts(*store_, ladder);
      daemon_->adopt_lockouts(std::move(ladder));
      daemon_->attach_lockout_store(&*store_);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_[c] = daemon_->open_connection();
    }
  }
  DaemonStack(const DaemonStack&) = delete;
  DaemonStack& operator=(const DaemonStack&) = delete;

  AuthDaemon& daemon() { return *daemon_; }
  const auth::AuthService& service() const { return *service_; }
  obs::FakeClock& clock() { return clock_; }
  AuthDaemon::ConnId conn(std::size_t c) const { return conns_[c]; }
  double enroll_s() const { return enroll_s_; }
  FaultFs* fs() { return fs_.get(); }

  /// Compacts the lockout store (publishes the live ladder as a new
  /// snapshot generation, dropping the WAL) and returns the WAL records
  /// the compaction dropped. The in-memory FaultFs would otherwise hold
  /// every event of the run, so peak RSS would grow with throughput.
  std::uint64_t compact_lockouts() {
    const std::string wal = std::string(kLockoutDir) + "/" +
                            wal_segment_name(store_->generation(), 0);
    const std::uint64_t records =
        fs_->exists(wal)
            ? scan_wal(fs_->read_file(wal), store_->generation())
                  .payloads.size()
            : 0;
    authd::publish_lockouts(*store_, daemon_->lockouts());
    return records;
  }

 private:
  obs::FakeClock clock_;
  std::unique_ptr<auth::AuthService> service_;
  std::unique_ptr<FaultFs> fs_;
  std::optional<MeasurementStore> store_;
  std::unique_ptr<AuthDaemon> daemon_;
  AuthDaemon::ConnId conns_[kConnections] = {};
  double enroll_s_ = 0.0;
};

// --- the closed-loop driver -----------------------------------------------

/// Tallies the determinism gate compares between a run and its replay.
struct Checkpoint {
  std::uint64_t status[8] = {};
  std::uint64_t decided = 0;
  std::string decisions_sha256;
  std::string lockout_hash;

  bool operator==(const Checkpoint& o) const {
    return std::equal(std::begin(status), std::end(status),
                      std::begin(o.status)) &&
           decided == o.decided && decisions_sha256 == o.decisions_sha256 &&
           lockout_hash == o.lockout_hash;
  }
};

/// Per-layer timings the traced run collects around daemon calls.
struct Trace {
  std::uint64_t ingest_ns = 0;
  std::uint64_t pump_ns = 0;
  std::uint64_t output_ns = 0;
  std::uint64_t driver_ns = 0;
  std::uint64_t daemon_allocs = 0;
  LatencyHistogram batch;
  LatencyHistogram queue_wait;
};

class Driver {
 public:
  Driver(DaemonStack& stack, const Corpus& corpus, bool adversarial,
         const Options& options)
      : stack_(stack),
        daemon_(stack.daemon()),
        corpus_(corpus),
        adversarial_(adversarial),
        options_(options),
        acquired_(kDevices, 0) {}

  /// Fills RateLimiter to max_tracked minus the enrolled ids with
  /// never-seen ids, through the daemon (adversarial only).
  void warm_up() {
    const std::uint64_t fill =
        authd::RateLimiterConfig{}.max_tracked - kDevices;
    slots_.clear();
    for (std::size_t s = 0; s < kWarmupSlots; ++s) {
      add_slot(SlotKind::kSpray, s % kConnections);
    }
    spray_budget_ = fill;
    while (spray_sent_ < fill || ring_.size() > 0) {
      tick(nullptr);
    }
    spray_budget_ = ~std::uint64_t{0};
  }

  /// Runs the measured closed loop until `seconds` have passed and at
  /// least kReplayTicks ticks ran (0 = exactly kReplayTicks ticks), then
  /// drains every request in flight.
  void run(double seconds, Trace* trace) {
    slots_.clear();
    for (std::vector<std::uint32_t>& ready : ready_) {
      ready.clear();
    }
    for (std::size_t d = 0; d < kDevices; ++d) {
      add_slot(SlotKind::kGenuine, d % kConnections);
    }
    if (adversarial_) {
      for (std::size_t j = 0; j < kStormSlots; ++j) {
        add_slot(SlotKind::kStorm, j % kConnections);
      }
      add_slot(SlotKind::kSpray, kConnections - 1);
      spray_gap_ns_ = kSprayGapNs;
    }
    // The measured window's tallies start here (the daemon's witness and
    // the checkpoint's refusal counts keep covering the warm-up).
    latency_ = LatencyHistogram();
    windows_.clear();
    std::copy(std::begin(status_), std::end(status_),
              std::begin(status_at_start_));
    handed_ = answered_ = genuine_sent_ = genuine_decided_ = 0;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t cpu0 = thread_cpu_ns();
    open_window(t0, cpu0);
    std::uint64_t ticks = 0;
    while (true) {
      tick(trace);
      ++ticks;
      if (ticks == kReplayTicks) {
        take_checkpoint();
      }
      if (adversarial_ && ticks % kCompactTicks == 0) {
        wal_appends_ += stack_.compact_lockouts();
      }
      const std::uint64_t now = now_ns();
      if (ticks >= kReplayTicks &&
          (seconds <= 0.0 || seconds_between(t0, now) >= seconds)) {
        break;
      }
      if (seconds > 0.0 && windows_.size() + 1 < kWindows &&
          seconds_between(window_wall0_, now) >= seconds / kWindows) {
        close_window();
        open_window(now, thread_cpu_ns());
      }
    }
    feeding_ = false;
    while (!ring_.empty()) {
      tick(trace);
    }
    feeding_ = true;
    close_window();
    busy_s_ = seconds_between(cpu0, thread_cpu_ns());
  }

  /// Lockout WAL records compacted away during the measured run.
  std::uint64_t wal_appends() const { return wal_appends_; }

  /// Re-parses every response with the wire module's FrameReader (CRC
  /// included) on top of the driver's own fixed-offset read.
  void verify_frames(bool on) { verify_frames_ = on; }

  const Checkpoint& checkpoint() const { return checkpoint_; }
  /// CPU time of the driver thread over the measured window.
  double busy_s() const { return busy_s_; }
  const LatencyHistogram& latency() const { return latency_; }

  /// Throughput and latency of each window of the measured run.
  struct Window {
    double answered_per_s = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };
  const std::vector<Window>& windows() const { return windows_; }
  std::uint64_t handed() const { return handed_; }
  std::uint64_t answered() const { return answered_; }
  std::uint64_t genuine_sent() const { return genuine_sent_; }
  std::uint64_t genuine_decided() const { return genuine_decided_; }
  /// Responses of status `s` in the measured window.
  std::uint64_t status_count(ResponseStatus s) const {
    const auto i = static_cast<std::size_t>(s);
    return status_[i] - status_at_start_[i];
  }
  std::uint64_t errors() const { return errors_; }
  /// Decisions received since the daemon started (warm-up included).
  std::uint64_t decisions_total() const { return status_[0]; }
  std::string witness() {
    Sha256 copy = witness_;
    return Sha256::to_hex(copy.finalize());
  }
  std::uint64_t limiter_tracked() const {
    const std::uint64_t ids =
        static_cast<std::uint64_t>(
            std::count(acquired_.begin(), acquired_.end(), 1)) +
        spray_acquired_;
    return std::min<std::uint64_t>(ids,
                                   authd::RateLimiterConfig{}.max_tracked);
  }

 private:
  struct Slot {
    SlotKind kind = SlotKind::kGenuine;
    std::size_t conn = 0;
    std::uint64_t next = 0;     ///< Position in the slot's request cycle.
    std::uint64_t sent_ns = 0;  ///< Handed to on_bytes (latency start).
    std::uint64_t admitted_ns = 0;  ///< on_bytes returned (traced).
    std::uint64_t ring_pos = 0;
    std::uint64_t wake_ns = 0;  ///< Virtual time before which it waits.
  };

  /// One handed request, kept in admission order until answered.
  struct InFlight {
    std::uint64_t device_id = 0;
    std::uint64_t entry = 0;  ///< Corpus entry; ~0 = spray.
    std::uint64_t request_id = 0;
    std::uint8_t status = kPending;
    std::uint8_t decision = 0;
    bool genuine = false;
  };

  void add_slot(SlotKind kind, std::size_t conn) {
    Slot slot;
    slot.kind = kind;
    slot.conn = conn;
    slots_.push_back(slot);
    ready_[conn].push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }

  /// Appends slot s's next request to `buf` and records it in flight.
  void hand(std::uint32_t s, std::string& buf) {
    Slot& slot = slots_[s];
    InFlight f;
    if (slot.kind == SlotKind::kSpray) {
      authd::AuthRequestMsg msg;
      msg.request_id = request_id(s, slot.next);
      msg.device_id = (std::uint64_t{1} << 40) + spray_sent_;
      msg.response = corpus_.spray_read;
      buf += authd::encode_auth_request(msg);
      f.device_id = msg.device_id;
      f.entry = ~std::uint64_t{0};
      f.request_id = msg.request_id;
      ++spray_sent_;
    } else {
      std::uint64_t entry = 0;
      if (slot.kind == SlotKind::kGenuine) {
        // Each pass over the device's reads takes them in another order
        // (odd stride, so a permutation), so a replayed corpus does not
        // line the same failing reads up into the same strike runs.
        const std::uint64_t pass = slot.next / kReadsPerDevice;
        const std::uint64_t pos = slot.next % kReadsPerDevice;
        entry = s * kReadsPerDevice +
                (pos * (2 * pass + 1) + pass) % kReadsPerDevice;
      } else {
        const std::size_t j = s - kDevices;
        entry = kGenuineEntries + j * kStormReadsPerSlot +
                slot.next % kStormReadsPerSlot;
      }
      buf += corpus_.frames[entry];
      f.device_id = corpus_.claimed[entry];
      f.entry = entry;
      f.request_id = load_u64(corpus_.frames[entry].data() + 8);
      f.genuine = corpus_.year[entry] >= 0;
      genuine_sent_ += f.genuine ? 1 : 0;
    }
    ++slot.next;
    slot.ring_pos = ring_base_ + ring_.size();
    ring_.push_back(f);
    ++handed_;
  }

  void tick(Trace* trace) {
    stack_.clock().advance(kTickNs);
    const std::uint64_t virtual_now = stack_.clock().now_ns();
    std::uint64_t t = trace != nullptr ? thread_cpu_ns() : 0;
    // Feed: each connection gets its ready slots' next frames in one read.
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (!feeding_ || ready_[c].empty()) {
        continue;
      }
      buf_.clear();
      batch_.clear();
      waiting_.clear();
      for (const std::uint32_t s : ready_[c]) {
        if (slots_[s].wake_ns > virtual_now ||
            (slots_[s].kind == SlotKind::kSpray &&
             spray_sent_ >= spray_budget_)) {
          waiting_.push_back(s);
        } else {
          hand(s, buf_);
          batch_.push_back(s);
        }
      }
      ready_[c].swap(waiting_);
      if (batch_.empty()) {
        continue;
      }
      const std::uint64_t sent = thread_cpu_ns();
      const std::uint64_t a0 = trace != nullptr ? thread_allocs() : 0;
      daemon_.on_bytes(stack_.conn(c), buf_);
      const std::uint64_t done = thread_cpu_ns();
      if (trace != nullptr) {
        trace->daemon_allocs += thread_allocs() - a0;
        trace->driver_ns += sent - t;
        trace->ingest_ns += done - sent;
      }
      t = done;
      for (const std::uint32_t s : batch_) {
        slots_[s].sent_ns = sent;
        slots_[s].admitted_ns = done;
      }
    }
    // Pump: one batch through decide.
    const std::uint64_t p0 = trace != nullptr ? thread_cpu_ns() : 0;
    const std::uint64_t a0 = trace != nullptr ? thread_allocs() : 0;
    const std::size_t decided = daemon_.pump();
    const std::uint64_t readable = thread_cpu_ns();
    if (trace != nullptr) {
      trace->daemon_allocs += thread_allocs() - a0;
      trace->driver_ns += p0 - t;
      trace->pump_ns += readable - p0;
      if (decided > 0) {
        trace->batch.record(readable - p0);
      }
    }
    t = readable;
    // Read every connection's responses.
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::uint64_t b0 = trace != nullptr ? thread_allocs() : 0;
      const std::string_view out = daemon_.output(stack_.conn(c));
      if (trace != nullptr) {
        lap(t, trace->output_ns);
        trace->daemon_allocs += thread_allocs() - b0;
      }
      if (out.empty()) {
        continue;
      }
      const std::size_t used = read_responses(c, out, readable, trace);
      if (trace != nullptr) {
        lap(t, trace->driver_ns);
        b0 = thread_allocs();
      }
      daemon_.consume_output(stack_.conn(c), used);
      if (trace != nullptr) {
        lap(t, trace->output_ns);
        trace->daemon_allocs += thread_allocs() - b0;
      }
    }
    retire();
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (daemon_.wants_close(stack_.conn(c))) {
        throw std::runtime_error("the daemon closed a driver connection");
      }
    }
    if (trace != nullptr) {
      lap(t, trace->driver_ns);
    }
  }

  /// Charges the time since `t` to `bucket` and restarts the lap.
  static void lap(std::uint64_t& t, std::uint64_t& bucket) {
    const std::uint64_t n = thread_cpu_ns();
    bucket += n - t;
    t = n;
  }

  std::size_t read_responses(std::size_t c, std::string_view out,
                             std::uint64_t readable, Trace* trace);

  void open_window(std::uint64_t wall_ns, std::uint64_t cpu_ns) {
    window_wall0_ = wall_ns;
    window_cpu0_ = cpu_ns;
    window_answered0_ = answered_;
    window_latency_ = LatencyHistogram();
  }

  void close_window() {
    Window w;
    w.answered_per_s =
        static_cast<double>(answered_ - window_answered0_) /
        seconds_between(window_cpu0_, thread_cpu_ns());
    w.p50_us = window_latency_.quantile_ns(0.5) * 1e-3;
    w.p99_us = window_latency_.quantile_ns(0.99) * 1e-3;
    windows_.push_back(w);
  }
  void retire();
  void take_checkpoint();

  DaemonStack& stack_;
  AuthDaemon& daemon_;
  const Corpus& corpus_;
  bool adversarial_;
  const Options& options_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> ready_[kConnections];
  std::vector<std::uint32_t> batch_;
  std::vector<std::uint32_t> waiting_;
  std::deque<InFlight> ring_;
  std::uint64_t ring_base_ = 0;
  std::string buf_;
  bool feeding_ = true;
  bool verify_frames_ = false;
  bool witness_perturbed_ = false;

  std::uint64_t spray_sent_ = 0;
  std::uint64_t spray_budget_ = ~std::uint64_t{0};
  std::uint64_t spray_gap_ns_ = 0;
  std::uint64_t wal_appends_ = 0;
  std::uint64_t spray_acquired_ = 0;
  std::vector<std::uint8_t> acquired_;

  Sha256 witness_;
  LatencyHistogram latency_;
  LatencyHistogram window_latency_;
  std::vector<Window> windows_;
  std::uint64_t window_wall0_ = 0;
  std::uint64_t window_cpu0_ = 0;
  std::uint64_t window_answered0_ = 0;
  Checkpoint checkpoint_;
  std::uint64_t status_[8] = {};
  std::uint64_t status_at_start_[8] = {};
  std::uint64_t handed_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t genuine_sent_ = 0;
  std::uint64_t genuine_decided_ = 0;
  std::uint64_t errors_ = 0;
  double busy_s_ = 0.0;
};


std::size_t Driver::read_responses(std::size_t c, std::string_view out,
                                   std::uint64_t readable, Trace* trace) {
  std::size_t pos = 0;
  while (out.size() - pos >= kResponseFrameBytes) {
    const char* p = out.data() + pos;
    if (load_u32(p) != authd::kFrameMagic ||
        static_cast<std::uint8_t>(p[4]) !=
            static_cast<std::uint8_t>(authd::MsgType::kAuthResponse) ||
        load_u32(p + 16) != 12) {
      throw std::runtime_error("malformed response frame");
    }
    const std::uint64_t rid = load_u64(p + 8);
    const std::uint8_t status = static_cast<std::uint8_t>(p[24]);
    const std::uint8_t decision = static_cast<std::uint8_t>(p[25]);
    const std::size_t s = static_cast<std::size_t>(rid >> 32);
    if (s >= slots_.size() || slots_[s].conn != c ||
        slots_[s].ring_pos < ring_base_) {
      throw std::runtime_error("response for an unknown request");
    }
    InFlight& f = ring_[slots_[s].ring_pos - ring_base_];
    if (f.status != kPending || f.request_id != rid || status >= 8) {
      throw std::runtime_error("response does not match its request");
    }
    f.status = status;
    f.decision = decision;
    // A refused client honours the retry time it was given.
    slots_[s].wake_ns = load_u64(p + 28);
    if (slots_[s].kind == SlotKind::kSpray && spray_gap_ns_ != 0) {
      slots_[s].wake_ns = std::max(slots_[s].wake_ns,
                                   stack_.clock().now_ns() + spray_gap_ns_);
    }
    ++status_[status];
    ++answered_;
    latency_.record(readable - slots_[s].sent_ns);
    window_latency_.record(readable - slots_[s].sent_ns);
    if (trace != nullptr && status == 0) {
      trace->queue_wait.record(readable - slots_[s].admitted_ns);
    }
    ready_[c].push_back(static_cast<std::uint32_t>(s));
    pos += kResponseFrameBytes;
  }
  if (verify_frames_) {
    authd::FrameReader reader;
    reader.feed(out.substr(0, pos));
    std::size_t at = 0;
    while (std::optional<authd::Frame> frame = reader.next()) {
      const authd::AuthResponseMsg msg = authd::parse_auth_response(*frame);
      const char* p = out.data() + at;
      if (msg.request_id != load_u64(p + 8) ||
          static_cast<std::uint8_t>(msg.status) !=
              static_cast<std::uint8_t>(p[24]) ||
          msg.decision != static_cast<std::uint8_t>(p[25])) {
        throw std::runtime_error("FrameReader disagrees with the driver");
      }
      at += kResponseFrameBytes;
    }
    if (at != pos) {
      throw std::runtime_error("FrameReader framed a different byte count");
    }
  }
  return pos;
}

void Driver::retire() {
  while (!ring_.empty() && ring_.front().status != kPending) {
    const InFlight& f = ring_.front();
    const auto status = static_cast<ResponseStatus>(f.status);
    // Every request the lockout gate lets through takes a limiter token.
    if (status != ResponseStatus::kLockedOut &&
        status != ResponseStatus::kDraining) {
      if (f.entry == ~std::uint64_t{0}) {
        ++spray_acquired_;
      } else {
        acquired_[f.device_id] = 1;
      }
    }
    if (status == ResponseStatus::kDecision) {
      auth::AuthDecision ref = auth::AuthDecision::kAccept;
      if (f.entry == ~std::uint64_t{0}) {
        const auth::AuthRequest request{f.device_id,
                                        corpus_.spray_read.data()};
        stack_.service().authenticate_batch(&request, 1, &ref);
      } else {
        ref = corpus_.reference[f.entry];
      }
      if (static_cast<std::uint8_t>(ref) != f.decision) {
        ++errors_;
      }
      std::uint8_t w[9];
      for (int b = 0; b < 8; ++b) {
        w[b] = static_cast<std::uint8_t>(f.device_id >> (8 * b));
      }
      w[8] = static_cast<std::uint8_t>(ref);
      if (options_.perturb == "witness" && !witness_perturbed_) {
        w[8] ^= 1;
        witness_perturbed_ = true;
      }
      witness_.update(w, sizeof w);
      genuine_decided_ += f.genuine ? 1 : 0;
    }
    ring_.pop_front();
    ++ring_base_;
  }
}

void Driver::take_checkpoint() {
  std::copy(std::begin(status_), std::end(status_),
            std::begin(checkpoint_.status));
  checkpoint_.decided = daemon_.stats().decided;
  checkpoint_.decisions_sha256 = daemon_.decisions_sha256();
  checkpoint_.lockout_hash = daemon_.lockouts().state_hash();
}

// --- isolated probes (traced run) -------------------------------------------

/// Runs `body` (which returns the items it processed) until at least
/// `min_s` seconds passed; returns ns per item.
template <typename Body>
double ns_per_item(double min_s, Body&& body) {
  const std::uint64_t t0 = thread_cpu_ns();
  std::uint64_t items = 0;
  do {
    items += body();
  } while (seconds_between(t0, thread_cpu_ns()) < min_s);
  return static_cast<double>(thread_cpu_ns() - t0) / static_cast<double>(items);
}

struct Probes {
  double decode_ns = 0.0;
  double encode_ns = 0.0;
  double decide_ns = 0.0;
  double acquire_empty_ns = 0.0;
  double acquire_full_ns = 0.0;
};

Probes run_probes(const Corpus& c, const auth::AuthService& service) {
  Probes p;
  constexpr std::size_t kBatch = 256;  // DaemonConfig::batch_max default.
  const std::size_t n = c.frames.size();
  std::vector<std::string> chunks;
  for (std::size_t begin = 0; begin < n; begin += kBatch) {
    std::string chunk;
    for (std::size_t i = begin; i < std::min(n, begin + kBatch); ++i) {
      chunk += c.frames[i];
    }
    chunks.push_back(std::move(chunk));
  }
  std::uint64_t sink = 0;
  p.decode_ns = ns_per_item(0.2, [&] {
    std::uint64_t frames = 0;
    for (const std::string& chunk : chunks) {
      authd::FrameReader reader;
      reader.feed(chunk);
      while (std::optional<authd::Frame> frame = reader.next()) {
        sink += authd::parse_auth_request(*frame).device_id;
        ++frames;
      }
    }
    return frames;
  });
  p.encode_ns = ns_per_item(0.2, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      authd::AuthResponseMsg msg;
      msg.request_id = load_u64(c.frames[i].data() + 8);
      msg.decision = static_cast<std::uint8_t>(c.reference[i]);
      sink += authd::encode_auth_response(msg).size();
    }
    return n;
  });
  std::vector<auth::AuthRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i] = {c.claimed[i], c.reads.data() + i * c.words};
  }
  std::vector<auth::AuthDecision> decisions(kBatch);
  p.decide_ns = ns_per_item(0.3, [&] {
    for (std::size_t begin = 0; begin < n; begin += kBatch) {
      const std::size_t count = std::min(kBatch, n - begin);
      sink += service.authenticate_batch(requests.data() + begin, count,
                                         decisions.data())
                  .accepted;
    }
    return n;
  });
  // RateLimiter::try_acquire on a table that starts empty (it grows to
  // the corpus's claimed ids), then on one held at max_tracked, where
  // every never-seen id evicts.
  p.acquire_empty_ns = ns_per_item(0.2, [&] {
    authd::RateLimiter limiter{authd::RateLimiterConfig{}};
    std::uint64_t now = 1'000'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      sink += limiter.try_acquire(c.claimed[i], now);
      now += 1000;
    }
    return n;
  });
  {
    const authd::RateLimiterConfig config;
    authd::RateLimiter limiter{config};
    std::uint64_t now = 1'000'000'000;
    for (std::uint64_t id = 0; id < config.max_tracked; ++id) {
      limiter.try_acquire((std::uint64_t{1} << 40) + id, now++);
    }
    std::uint64_t fresh = (std::uint64_t{1} << 41);
    p.acquire_full_ns = ns_per_item(0.2, [&] {
      sink += limiter.try_acquire(fresh++, now++);
      return std::uint64_t{1};
    });
  }
  if (sink == 42) {
    std::fprintf(stderr, " ");  // Keeps the probed work observable.
  }
  return p;
}

// --- the workload -----------------------------------------------------------

struct Pass {
  std::unique_ptr<DaemonStack> stack;
  std::unique_ptr<Driver> driver;
};

/// A fresh daemon stack with its driver, warmed up when adversarial.
Pass start_pass(const auth::VirtualFleet& fleet, const Corpus& corpus,
                bool adversarial, const Options& options) {
  Pass pass;
  pass.stack = std::make_unique<DaemonStack>(fleet, adversarial);
  pass.driver =
      std::make_unique<Driver>(*pass.stack, corpus, adversarial, options);
  if (adversarial) {
    const std::uint64_t t0 = now_ns();
    pass.driver->warm_up();
    std::fprintf(stderr, "warm-up: limiter filled through the daemon in %.3f s\n",
                 seconds_between(t0, now_ns()));
  }
  return pass;
}

/// The correctness gates every measured pass must pass; returns the
/// lockout WAL records the pass appended (0 without a lockout store).
std::uint64_t check_pass(Pass& pass, const Checkpoint& replayed,
                         bool adversarial, const Options& options,
                         Result& result) {
  Driver& driver = *pass.driver;
  AuthDaemon& daemon = pass.stack->daemon();
  result.gate("witness", driver.errors() == 0,
              std::to_string(driver.errors()) +
                  " response(s) differ from a direct authenticate_batch");
  result.gate("witness", daemon.decisions_sha256() == driver.witness(),
              "daemon decisions_sha256 differs from authenticate_batch in "
              "admission order");
  const authd::DaemonStats stats = daemon.stats();
  result.gate("witness", stats.decided == driver.decisions_total(),
              "daemon decided count differs from decisions received");
  Checkpoint measured = driver.checkpoint();
  if (options.perturb == "determinism") {
    measured.status[static_cast<std::size_t>(ResponseStatus::kLockedOut)] += 1;
  }
  result.gate("determinism", measured == replayed,
              "refusal counts / lockout state_hash differ on replay of the "
              "same seed");
  if (!adversarial) {
    return 0;
  }
  MeasurementStore recovered(*pass.stack->fs(), kLockoutDir);
  const std::uint64_t wal_appends =
      driver.wal_appends() + recovered.recovery().wal_records;
  const authd::LockoutLadder ladder =
      authd::load_lockouts(recovered, daemon.config().lockout);
  std::string live = daemon.lockouts().state_hash();
  if (options.perturb == "lockout-wal") {
    live[0] = live[0] == '0' ? '1' : '0';
  }
  result.gate("lockout-wal", ladder.state_hash() == live,
              "lockout WAL does not recover the live ladder");
  result.gate("lockout-wal",
              wal_appends > 0 && daemon.lockouts().tracked() > 0,
              "the storm walked no lockout ladder");
  return wal_appends;
}

}  // namespace

void run_authd_workload(const Options& options, bool adversarial,
                        Result& result) {
  ThreadPool pool(worker_threads());
  const auth::VirtualFleet fleet(fleet_config(options.seed), kDevices);

  // Set-up: enrollment + daemon (+ lockout store), repeated.
  std::vector<double> setup_s;
  std::vector<double> enroll_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const double t0 = process_cpu_s();
    DaemonStack stack(fleet, adversarial);
    setup_s.push_back(process_cpu_s() - t0);
    enroll_s.push_back(stack.enroll_s());
  }

  // Inputs (not timed): corpus and reference decisions, from an enrolled
  // service identical to every stack's (enrollment is a pure function of
  // the fleet).
  const DaemonStack reference_stack(fleet, false);
  Corpus corpus =
      build_corpus(fleet, reference_stack.service(), options.seed, pool);
  double frr = 0.0;
  check_corpus(corpus, options, result, &frr);

  // The determinism replay: a fresh daemon through the first ticks.
  Checkpoint replayed;
  {
    Pass replay = start_pass(fleet, corpus, adversarial, options);
    replay.driver->verify_frames(true);
    replay.driver->run(0.0, nullptr);
    replayed = replay.driver->checkpoint();
    result.gate("witness", replay.driver->errors() == 0 &&
                               replay.stack->daemon().decisions_sha256() ==
                                   replay.driver->witness(),
                "replay decisions differ from authenticate_batch");
  }

  Pass pass = start_pass(fleet, corpus, adversarial, options);
  pass.driver->run(options.seconds, nullptr);
  check_pass(pass, replayed, adversarial, options, result);
  const Driver& d = *pass.driver;
  const double untraced_ns_per_request =
      d.busy_s() * 1e9 / static_cast<double>(d.handed());
  const std::uint64_t failed =
      d.status_count(ResponseStatus::kRetryAfter) +
      d.status_count(ResponseStatus::kShed) +
      d.status_count(ResponseStatus::kDeadline) + d.errors();
  std::fprintf(stderr,
               "%s: %llu requests in %.3f s = %.0f auths_per_s; latency p50 "
               "%.1f us p99 %.1f us; genuine %llu sent, %llu decided "
               "(refused_frac %.5f); locked-out %llu, rate-limited %llu, "
               "deadline %llu, shed %llu, retry-after %llu\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(d.answered()), d.busy_s(),
               static_cast<double>(d.answered()) / d.busy_s(),
               d.latency().quantile_ns(0.5) * 1e-3,
               d.latency().quantile_ns(0.99) * 1e-3,
               static_cast<unsigned long long>(d.genuine_sent()),
               static_cast<unsigned long long>(d.genuine_decided()),
               1.0 - static_cast<double>(d.genuine_decided()) /
                         static_cast<double>(d.genuine_sent()),
               static_cast<unsigned long long>(
                   d.status_count(ResponseStatus::kLockedOut)),
               static_cast<unsigned long long>(
                   d.status_count(ResponseStatus::kRateLimited)),
               static_cast<unsigned long long>(
                   d.status_count(ResponseStatus::kDeadline)),
               static_cast<unsigned long long>(
                   d.status_count(ResponseStatus::kShed)),
               static_cast<unsigned long long>(
                   d.status_count(ResponseStatus::kRetryAfter)));
  result.attempted = d.handed();
  result.failed = failed;

  if (!options.trace) {
    std::vector<double> rate, p50, p99;
    for (const Driver::Window& w : d.windows()) {
      rate.push_back(w.answered_per_s);
      p50.push_back(w.p50_us);
      p99.push_back(w.p99_us);
    }
    result.set("throughput_per_s", median(rate));
    result.set("latency_p50_us", median(p50));
    result.set("latency_p99_us", median(p99));
    result.set("answered_frac", static_cast<double>(d.genuine_decided()) /
                                    static_cast<double>(d.genuine_sent()));
    result.set("setup_s", median(setup_s));
    return;
  }

  // Traced pass on a fresh daemon, then the isolated probes.
  pass = Pass();
  Trace trace;
  Pass traced = start_pass(fleet, corpus, adversarial, options);
  traced.driver->run(options.seconds, &trace);
  const std::uint64_t traced_wal_appends =
      check_pass(traced, replayed, adversarial, options, result);
  const Driver& t = *traced.driver;
  const Probes probes = run_probes(corpus, reference_stack.service());

  const double requests = static_cast<double>(t.handed());
  const double busy_ns = static_cast<double>(
      trace.ingest_ns + trace.pump_ns + trace.output_ns + trace.driver_ns);
  const double cpu_ns = t.busy_s() * 1e9;  // The driver thread's CPU time.
  const double gap = (cpu_ns - busy_ns) / cpu_ns;
  const double overhead = cpu_ns / requests / untraced_ns_per_request - 1.0;
  std::fprintf(stderr,
               "authd trace: %.3f CPU-s for %.0f requests; ingest %.3f s, "
               "pump %.3f s, output %.3f s, driver %.3f s (gap %+.2f%%); "
               "%.1f ns/request vs %.1f untraced (tracing overhead %+.2f%%)\n"
               "  probes: decode %.1f ns/frame, encode %.1f ns/frame, decide "
               "%.1f ns/request, acquire %.1f ns empty / %.0f ns full\n",
               t.busy_s(), requests, static_cast<double>(trace.ingest_ns) * 1e-9,
               static_cast<double>(trace.pump_ns) * 1e-9,
               static_cast<double>(trace.output_ns) * 1e-9,
               static_cast<double>(trace.driver_ns) * 1e-9, gap * 100.0,
               cpu_ns / requests, untraced_ns_per_request, overhead * 100.0,
               probes.decode_ns, probes.encode_ns, probes.decide_ns,
               probes.acquire_empty_ns, probes.acquire_full_ns);
  result.gate("accounting", std::fabs(gap) <= 0.05,
              "stage times leave " + std::to_string(gap * 100.0) +
                  "% of the driver thread's time unaccounted");

  result.set("authd.ingest.busy_s", static_cast<double>(trace.ingest_ns) * 1e-9);
  result.set("authd.ingest.ns_per_frame",
             static_cast<double>(trace.ingest_ns) / requests);
  result.set("authd.pump.busy_s", static_cast<double>(trace.pump_ns) * 1e-9);
  result.set("authd.pump.batch_us_p50", trace.batch.quantile_ns(0.5) * 1e-3);
  result.set("authd.pump.batch_us_p99", trace.batch.quantile_ns(0.99) * 1e-3);
  result.set("authd.output.busy_s", static_cast<double>(trace.output_ns) * 1e-9);
  result.set("authd.driver.busy_s", static_cast<double>(trace.driver_ns) * 1e-9);
  result.set("authd.queue.wait_us_p99",
             trace.queue_wait.quantile_ns(0.99) * 1e-3);
  result.set("authd.allocs_per_request",
             static_cast<double>(trace.daemon_allocs) / requests);
  result.set("authd.overhead_ns_per_request",
             static_cast<double>(trace.ingest_ns + trace.pump_ns) / requests -
                 probes.decide_ns);
  result.set("authd.wire.decode.ns_per_frame", probes.decode_ns);
  result.set("authd.wire.encode.ns_per_frame", probes.encode_ns);
  result.set("authd.limiter.ns_per_acquire_empty", probes.acquire_empty_ns);
  result.set("authd.limiter.ns_per_acquire_full", probes.acquire_full_ns);
  result.set("authd.limiter.tracked", static_cast<double>(t.limiter_tracked()));
  result.set("authd.lockout.tracked",
             static_cast<double>(traced.stack->daemon().lockouts().tracked()));
  result.set("authd.lockout.wal_appends",
             static_cast<double>(traced_wal_appends));
  result.set("auth.decide.ns_per_request", probes.decide_ns);
  result.set("auth.enroll.s", median(enroll_s));
  result.set("auth.frr", frr);
  result.set("auth.corrected_bits_per_accept",
             static_cast<double>(corpus.genuine_stats.corrected_bits) /
                 static_cast<double>(corpus.genuine_stats.accepted));
  result.set("trace.accounting_gap_frac", gap);
  result.set("trace.overhead_frac", overhead);
}

}  // namespace perfbench
