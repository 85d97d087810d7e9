// store_crp: the durable CRP ledger under concurrent authentication.
//
// An in-process VerifierStore on a fresh directory inside the working
// directory holds 64 devices with 64-entry single-use CRP databases.  One
// thread per core calls authenticate_crp on random devices of its own
// quarter of the fleet (each device has one caller, so the bench can keep
// exact per-device consumption).  The on_low hook re-provisions a
// depleted database with enroll_crps: a large WAL record among the small
// consume markers.  The run ends with sync, close and a timed reopen, and
// checks that recovery restores exactly provisioned-minus-consumed CRPs
// and that two recoveries serialize to identical bytes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "common.hpp"
#include "core/crp_database.hpp"
#include "core/distributed.hpp"
#include "fleet.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/recovery.hpp"
#include "store/verifier_store.hpp"
#include "support/rng.hpp"

namespace verdictbench {

namespace core = pufatt::core;
namespace obs = pufatt::obs;
namespace store = pufatt::store;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kEntries = 64;
/// Measurement windows of a timed phase; its figures are medians over them.
constexpr std::size_t kWindows = 8;
/// Authentications after which the run reads its peak RSS.  The process's
/// memory grows with every authentication, so a reading at the end of a
/// fixed time would follow the host's speed.
constexpr std::uint64_t kRssAfterAuths = 16384;

std::string crp_id(std::size_t d) { return "crp-" + std::to_string(d); }

struct Phase {
  explicit Phase(std::size_t windows) : latency(windows) {}
  WindowEdges edges;             ///< steal and process CPU at window edges
  std::uint64_t auths = 0, accepted = 0, rejected = 0, exhausted = 0;
  WindowedLatency latency;       ///< ms per authenticate_crp call
  std::vector<double> auth_us;   ///< every call
  double wall_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;
};

class CrpBench {
 public:
  CrpBench(const WorkloadSpec& spec, std::uint64_t seed, std::size_t threads)
      : spec_(spec), seed_(seed), threads_(threads), code_(5) {
    consumed_.assign(spec.devices, 0);
    replaced_.assign(spec.devices, 0);
    episodes_.assign(spec.devices, 0);
  }

  /// Enrolls devices [begin, end) with fresh CRP databases.
  void enroll(std::size_t begin, std::size_t end,
              const std::vector<std::uint32_t>& image) {
    for (std::size_t d = begin; d < end; ++d) {
      devices_[d] = enroll_owned(code_, seed_ * 0x100 + 0xC0DE0000 + d, image);
      db_->enroll(crp_id(d), devices_[d].record);
      pufatt::support::Xoshiro256pp rng(seed_ ^ (0xC21 + d));
      db_->enroll_crps(crp_id(d), core::CrpDatabase::collect(
                                      devices_[d].device->raw_puf(), kEntries, rng));
    }
  }

  void open(const std::string& dir) {
    devices_.resize(spec_.devices);
    store::StoreOptions opts;
    opts.crp.on_low = [this](const std::string& id, std::size_t) { replenish(id); };
    db_ = store::VerifierStore::open(dir, opts);
  }

  Phase run(double seconds, std::size_t windows) {
    Phase phase(windows);
    std::mutex merge;
    std::atomic<bool> go{false};
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    const double end = t0 + seconds;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        Phase local(windows);
        pufatt::support::Xoshiro256pp rng(seed_ * 0x9E37 + t + 1);
        const std::size_t owned = spec_.devices / threads_;
        while (!go.load()) std::this_thread::yield();
        for (;;) {
          const double start = now_s();
          if (start >= end) break;
          const std::size_t d = t + threads_ * static_cast<std::size_t>(rng.next() % owned);
          const auto result = db_->authenticate_crp(
              crp_id(d), devices_[d].device->raw_puf(), rng);
          const double us = (now_s() - start) * 1e6;
          ++local.auths;
          if (auths_total_.fetch_add(1) + 1 == kRssAfterAuths) rss_mb_.store(peak_rss_mb());
          local.auth_us.push_back(us);
          local.latency.add(static_cast<std::size_t>((start - t0) / seconds *
                                                     static_cast<double>(windows)),
                            us / 1e3);
          if (!result || result->exhausted) {
            ++local.exhausted;
            continue;
          }
          ++(result->accepted ? local.accepted : local.rejected);
          // Only this thread touches device d, and on_low runs on it too.
          if (replaced_[d]) {
            replaced_[d] = 0;
            consumed_[d] = 0;
          } else {
            ++consumed_[d];
          }
        }
        std::lock_guard<std::mutex> lock(merge);
        phase.auths += local.auths;
        phase.accepted += local.accepted;
        phase.rejected += local.rejected;
        phase.exhausted += local.exhausted;
        phase.auth_us.insert(phase.auth_us.end(), local.auth_us.begin(),
                             local.auth_us.end());
        for (std::size_t w = 0; w < windows; ++w) {
          auto& dst = phase.latency.samples[w];
          const auto& src = local.latency.samples[w];
          dst.insert(dst.end(), src.begin(), src.end());
        }
      });
    }
    go.store(true);
    // Sample the window edges; a traced phase also keeps the per-thread
    // span rings drained.
    for (std::size_t edge = 0; edge <= windows;) {
      if (now_s() >= t0 + seconds * static_cast<double>(edge) /
                              static_cast<double>(windows)) {
        phase.edges.sample();
        ++edge;
        continue;
      }
      if (obs::global_trace_enabled()) obs::global_tracer().drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto& w : workers) w.join();
    phase.wall_s = now_s() - t0;
    phase.window_s = seconds / static_cast<double>(windows);
    phase.cpu_s = process_cpu_s() - cpu0;
    return phase;
  }

  /// CRPs each device should still hold, given what this run consumed.
  std::size_t expected_remaining(std::size_t d) const { return kEntries - consumed_[d]; }
  store::VerifierStore& db() { return *db_; }
  void close() { db_.reset(); }
  const std::vector<OwnedDevice>& devices() const { return devices_; }
  const pufatt::ecc::ReedMuller1& code() const { return code_; }

  /// Peak RSS, MiB, read after the first kRssAfterAuths authentications.
  double rss_mb() const { return rss_mb_.load(); }

  std::vector<double> replenish_us() {
    std::lock_guard<std::mutex> lock(replenish_mutex_);
    return replenish_us_;
  }

 private:
  void replenish(const std::string& id) {
    const double t0 = now_s();
    const std::size_t d = std::stoul(id.substr(4));
    pufatt::support::Xoshiro256pp rng(seed_ ^ (0x5EED0000 + d * 0x10000 + ++episodes_[d]));
    db_->enroll_crps(id, core::CrpDatabase::collect(devices_[d].device->raw_puf(),
                                                    kEntries, rng));
    replaced_[d] = 1;
    std::lock_guard<std::mutex> lock(replenish_mutex_);
    replenish_us_.push_back((now_s() - t0) * 1e6);
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::size_t threads_;
  pufatt::ecc::ReedMuller1 code_;
  std::vector<OwnedDevice> devices_;
  std::unique_ptr<store::VerifierStore> db_;
  // Per-device bookkeeping; device d is only touched by its owner thread.
  std::vector<std::size_t> consumed_;  ///< entries spent from the current database
  std::vector<std::uint8_t> replaced_;  ///< on_low replaced the database this call
  std::vector<std::uint64_t> episodes_;
  std::atomic<std::uint64_t> auths_total_{0};
  std::atomic<double> rss_mb_{0.0};  ///< peak RSS after kRssAfterAuths, 0 before
  std::mutex replenish_mutex_;
  std::vector<double> replenish_us_;  ///< guarded by replenish_mutex_
};

std::string serialize_recovered(const std::string& dir) {
  const auto state = store::recover(dir);
  std::ostringstream out(std::ios::binary);
  state.registry.save(out);
  state.ledger->save(out);
  return out.str();
}

std::uint64_t counter(const char* name) {
  return obs::global_registry().counter(name).value();
}

}  // namespace

RunResult run_store_crp(const RunOptions& options, const WorkloadSpec& spec) {
  RunResult result;
  result.metrics.declare(options.trace ? per_layer_metrics() : end_to_end_metrics());
  const StealMeter steal;
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  const std::string dir =
      (fs::current_path() / ".bench_work" / ("store_crp-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  CrpBench bench(spec, options.seed, threads);
  bench.open(dir);
  pufatt::support::Xoshiro256pp image_rng(options.seed ^ 0x57B);
  std::vector<std::uint32_t> firmware(600);
  for (auto& word : firmware) word = static_cast<std::uint32_t>(image_rng.next());
  const auto image =
      core::make_enrolled_image(core::DistributedParams::small_profile(), firmware);

  std::vector<double> slices;
  const std::size_t per_slice = spec.devices / kSetupSlices;
  for (std::size_t s = 0; s < kSetupSlices; ++s) {
    const double cpu0 = process_cpu_now_s();
    bench.enroll(s * per_slice, (s + 1) * per_slice, image);
    bench.db().sync();
    slices.push_back(process_cpu_now_s() - cpu0);
  }

  const auto appends0 = counter("store.wal.appends");
  const auto bytes0 = counter("store.wal.append_bytes");
  const auto syncs0 = counter("store.wal.syncs");
  Phase main_phase(1), plain(1);
  std::vector<obs::SpanRecord> spans;
  if (!options.trace) {
    main_phase = bench.run(0.8 * options.seconds, kWindows);
  } else {
    plain = bench.run(0.3 * options.seconds, kWindows);
    obs::global_tracer().clear();
    obs::set_global_trace(true);
    main_phase = bench.run(0.3 * options.seconds, 1);
    obs::set_global_trace(false);
    spans = obs::global_tracer().records();
    obs::global_tracer().clear();
  }
  const double appends = static_cast<double>(counter("store.wal.appends") - appends0);
  const double bytes = static_cast<double>(counter("store.wal.append_bytes") - bytes0);
  const double syncs = static_cast<double>(counter("store.wal.syncs") - syncs0);

  bench.db().sync();
  bench.close();
  const double t_open = now_s();
  auto reopened = store::VerifierStore::open(dir);
  const double recover_s = now_s() - t_open;
  const auto& stats = reopened->recovery_stats();
  std::size_t expected_total = 0;
  std::size_t mismatched = 0;
  for (std::size_t d = 0; d < spec.devices; ++d) {
    expected_total += bench.expected_remaining(d);
    const auto left = reopened->crp_remaining(crp_id(d));
    if (!left || *left != bench.expected_remaining(d)) ++mismatched;
  }
  const std::size_t records = stats.records_replayed;
  if (mismatched > 0 || stats.crp_remaining != expected_total) {
    result.correct = false;
    result.errors.push_back("store_crp: recovered CRPs " +
                            std::to_string(stats.crp_remaining) + " != provisioned minus consumed " +
                            std::to_string(expected_total) + " (" +
                            std::to_string(mismatched) + " devices differ)");
  }
  reopened.reset();
  if (serialize_recovered(dir) != serialize_recovered(dir)) {
    result.correct = false;
    result.errors.push_back("store_crp: two recoveries differ");
  }
  fs::remove_all(dir);
  std::error_code ignored;
  fs::remove(fs::path(dir).parent_path(), ignored);  // only if now empty

  const Phase& p = main_phase;
  result.attempted = p.auths + plain.auths;
  result.failed = p.exhausted + plain.exhausted;
  auto& m = result.metrics;
  if (!options.trace) {
    const WindowSet windows(p.latency, p.edges);
    m.put("setup_s", static_cast<double>(kSetupSlices) * median(slices));
    m.put("cpu_us_per_verdict", windows.cpu_us_per_sample());
    if (bench.rss_mb() > 0.0) {
      m.put("peak_rss_mb", bench.rss_mb());
    } else {
      std::fprintf(stderr, "verdictbench: fewer than %llu authentications; "
                   "peak_rss_mb read at the end of the run\n",
                   static_cast<unsigned long long>(kRssAfterAuths));
      m.put("peak_rss_mb", peak_rss_mb());
    }
  } else {
    const WindowSet plain_windows(plain.latency, plain.edges);
    m.put("capacity_vps", plain_windows.samples_per_s(plain.window_s));
    m.put("latency_p50_ms", plain_windows.latency(0.5));
    m.put("latency_p99_ms", plain_windows.latency(0.99));
    std::vector<double> fsync_us;
    double covered_us = 0.0;
    for (const auto& rec : spans) {
      const double us = static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
      if (std::string(rec.name) == "store.fsync") fsync_us.push_back(us);
      if (std::string(rec.name) == "store.fsync" || std::string(rec.name) == "store.append") {
        covered_us += us;
      }
    }
    double auth_total_us = 0.0;
    for (const double us : p.auth_us) auth_total_us += us;
    const auto auths = static_cast<double>(p.auths);
    m.put("throughput_vps", auths / p.wall_s);
    m.put("fail_ratio", static_cast<double>(result.failed) /
                            static_cast<double>(std::max<std::uint64_t>(1, result.attempted)));
    m.put("false_reject_ratio",
          static_cast<double>(p.rejected + plain.rejected) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, p.accepted + p.rejected + plain.accepted + plain.rejected)));
    m.put("recover_s", recover_s);
    m.put("store.auth_us_p50", quantile(p.auth_us, 0.5));
    m.put("store.auth_us_p99", quantile(p.auth_us, 0.99));
    const double both = static_cast<double>(p.auths + plain.auths);
    m.put("store.wal.appends_per_auth", appends / both);
    m.put("store.wal.bytes_per_auth", bytes / both);
    m.put("store.wal.syncs_per_auth", syncs / both);
    m.put("store.wal.sync_us_p99", quantile(fsync_us, 0.99));
    m.put("store.replenish_us_p50", quantile(bench.replenish_us(), 0.5));
    m.put("store.exhausted_ratio", static_cast<double>(p.exhausted) / auths);
    m.put("store.recover_records_per_s", static_cast<double>(records) / recover_s);
    std::vector<const OwnedDevice*> sample;
    for (std::size_t d = 0; d < 4; ++d) sample.push_back(&bench.devices()[d]);
    const auto layers = isolated_pass(sample, bench.code(),
                                      std::max(0.5, 0.2 * options.seconds),
                                      options.seed ^ 0x1A7E);
    for (const auto& [key, value] : layers.metrics) m.put(key, value);
    m.put("core.reject.reconstruction", static_cast<double>(layers.reject_reconstruction));
    m.put("core.reject.checksum", static_cast<double>(layers.reject_checksum));
    m.put("core.reject.time", static_cast<double>(layers.reject_time));
    m.put("trace.unattributed_share",
          auth_total_us > 0.0 ? std::max(0.0, 1.0 - covered_us / auth_total_us) : 0.0);
    m.put("trace.overhead", p.cpu_s * 1e6 / auths -
                                plain.cpu_s * 1e6 / static_cast<double>(plain.auths));
  }

  std::map<std::string, std::string> config = {
      {"threads", std::to_string(threads)},
      {"devices", std::to_string(spec.devices)},
      {"crp_entries", std::to_string(kEntries)},
      {"auths", std::to_string(p.auths)},
      {"rss_after_auths", std::to_string(kRssAfterAuths)},
      {"latency_samples", std::to_string(p.latency.count())},
      {"replenishes", std::to_string(bench.replenish_us().size())},
      {"recover_records", std::to_string(records)},
      {"recover_s", std::to_string(recover_s)},
      {"host_steal_share", std::to_string(steal.share())},
  };
  std::printf("config %s\n", run_config_json(options, spec, config).c_str());
  return result;
}

}  // namespace verdictbench
