#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "obs/trace.hpp"

namespace verdictbench {

const std::vector<WorkloadSpec>& workloads() {
  // Rates are verdicts/s with nproc - 1 = 3 verify workers; the nominal
  // rate is about half the capacity measured on a 4-core Xeon host.
  static const std::vector<WorkloadSpec> table = {
      // name          wire  live  devs cache jobs/dev nominal
      {"verify_warm",  true, false,   64,   64, 8, 3000.0},
      {"verify_cold",  true, false, 2048,  128, 1, 1500.0},
      {"device_live",  true, true,    64,   64, 8,  700.0},
      {"store_crp",    false, false,  64,    0, 0,    0.0},
  };
  return table;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

/// "model name" and the vector-ISA subset of "flags" from /proc/cpuinfo.
std::pair<std::string, std::string> cpu_description() {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model, isa;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model.empty()) model = value;
    if (key == "flags" && isa.empty()) {
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        if (flag.rfind("avx", 0) == 0 || flag.rfind("sse", 0) == 0 ||
            flag == "fma" || flag == "bmi2" || flag == "popcnt") {
          isa += (isa.empty() ? "" : " ") + flag;
        }
      }
    }
    if (!model.empty() && !isa.empty()) break;
  }
  return {model, isa};
}

std::uint64_t proc_status_kb(int pid, const char* key) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

std::string run_config_json(const RunOptions& options, const WorkloadSpec& spec,
                            const std::map<std::string, std::string>& extra) {
  const auto [model, isa] = cpu_description();
  std::ostringstream out;
  out << "{\"workload\":\"" << spec.name << "\",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":\"" << json_escape(model) << "\",\"isa\":\""
      << json_escape(isa) << "\",\"compiler\":\"" << json_escape(__VERSION__)
      << "\",\"build_type\":\"" << VB_BUILD_TYPE << "\""
      << ",\"PUFATT_TRACE\":" << (pufatt::obs::kTraceCompiled ? 1 : 0)
      << ",\"PUFATT_NATIVE_SIMD\":" << VB_NATIVE_SIMD;
  for (const auto& [key, value] : extra) {
    out << ",\"" << key << "\":" << value;
  }
  out << "}";
  return out.str();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void WindowedLatency::add(std::size_t window, double value_ms) {
  if (window >= samples.size()) window = samples.size() - 1;
  samples[window].push_back(value_ms);
}

std::size_t WindowedLatency::count() const {
  std::size_t n = 0;
  for (const auto& w : samples) n += w.size();
  return n;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"cpu_us_per_verdict", "us"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"capacity_vps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"throughput_vps", "1/s"},
      {"fail_ratio", "ratio"},
      {"false_reject_ratio", "ratio"},
      {"recover_s", "s"},
      {"net.wire_us_p50", "us"},
      {"net.bytes_per_verdict", "bytes"},
      {"net.shed_ratio", "ratio"},
      {"net.decode_errors", "count"},
      {"net.replies_dropped", "count"},
      {"service.queue_wait_us_p50", "us"},
      {"service.queue_wait_us_p99", "us"},
      {"service.queue_depth_hwm", "count"},
      {"service.cache.hit_ratio", "ratio"},
      {"service.cache.builds_per_verdict", "count"},
      {"service.cache.build_us_p50", "us"},
      {"service.cache.discarded", "count"},
      {"service.lease_wait_us_p99", "us"},
      {"timingsim.compiles_per_verdict", "count"},
      {"core.session.attempts_per_verdict", "count"},
      {"core.verify_us_p50", "us"},
      {"core.prover_us_p50", "us"},
      {"core.reject.reconstruction", "count"},
      {"core.reject.checksum", "count"},
      {"core.reject.time", "count"},
      {"swat.self_us_p50", "us"},
      {"alupuf.emulate_us_per_call", "us"},
      {"alupuf.puf_calls_per_verdict", "count"},
      {"alupuf.device_query_us_per_call", "us"},
      {"cpu.run_us_p50", "us"},
      {"cpu.cycles_per_verdict", "count"},
      {"store.auth_us_p50", "us"},
      {"store.auth_us_p99", "us"},
      {"store.wal.appends_per_auth", "count"},
      {"store.wal.bytes_per_auth", "bytes"},
      {"store.wal.syncs_per_auth", "count"},
      {"store.wal.sync_us_p99", "us"},
      {"store.replenish_us_p50", "us"},
      {"store.exhausted_ratio", "ratio"},
      {"store.recover_records_per_s", "1/s"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead", "us"},
  };
  return defs;
}

void Metrics::declare(const std::vector<MetricDef>& defs) {
  for (const auto& def : defs) {
    if (entries_.emplace(def.name, Entry{0.0, def.unit}).second) {
      order_.push_back(def.name);
    }
  }
}

void Metrics::put(const std::string& name, double value) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::logic_error("undeclared metric " + name);
  }
  it->second.value = std::isfinite(value) ? value : 0.0;
}

void Metrics::print_lines() const {
  for (const auto& name : order_) {
    const auto& e = entries_.at(name);
    std::printf("metric %-36s = %.9g %s\n", name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string Metrics::to_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& name : order_) {
    const auto& e = entries_.at(name);
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << e.value
        << ",\"unit\":\"" << e.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

double StealMeter::share() const {
  const auto [steal, total] = host_cpu_ticks();
  return total > total0_ ? static_cast<double>(steal - steal0_) /
                               static_cast<double>(total - total0_)
                         : 0.0;
}

std::pair<std::uint64_t, std::uint64_t> host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line
  std::uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

void WindowEdges::sample() {
  ticks_.push_back(host_cpu_ticks());
  cpu_s_.push_back(cpu_clock_());
}

std::vector<double> WindowEdges::steal() const {
  std::vector<double> out;
  for (std::size_t w = 0; w + 1 < ticks_.size(); ++w) {
    const auto total = ticks_[w + 1].second - ticks_[w].second;
    out.push_back(total > 0 ? static_cast<double>(ticks_[w + 1].first - ticks_[w].first) /
                                  static_cast<double>(total)
                            : 0.0);
  }
  return out;
}

std::vector<double> WindowEdges::cpu_s() const {
  std::vector<double> out;
  for (std::size_t w = 0; w + 1 < cpu_s_.size(); ++w) {
    out.push_back(cpu_s_[w + 1] - cpu_s_[w]);
  }
  return out;
}

WindowSet::WindowSet(const WindowedLatency& latency, const WindowEdges& edges)
    : latency_ms(latency.samples), cpu_s(edges.cpu_s()) {
  if (cpu_s.size() != latency_ms.size()) throw std::logic_error("window edges do not match");
}

double WindowSet::latency(double q) const {
  std::vector<double> per_window;
  for (const auto& window : latency_ms) {
    if (!window.empty()) per_window.push_back(quantile(window, q));
  }
  return median(per_window);
}

double WindowSet::cpu_us_per_sample() const {
  std::vector<double> per_window;
  for (std::size_t w = 0; w < latency_ms.size(); ++w) {
    if (!latency_ms[w].empty()) {
      per_window.push_back(cpu_s[w] * 1e6 / static_cast<double>(latency_ms[w].size()));
    }
  }
  return median(per_window);
}

double WindowSet::samples_per_s(double window_s) const {
  std::vector<double> per_window;
  for (const auto& window : latency_ms) {
    per_window.push_back(static_cast<double>(window.size()) / window_s);
  }
  return median(per_window);
}

double peak_rss_mb(int pid) {
  return static_cast<double>(proc_status_kb(pid, "VmHWM")) / 1024.0;
}

double cpus_busy_s(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  std::uint64_t busy = 0;
  while (std::getline(in, line)) {
    int cpu = -1;
    unsigned long long v[7] = {};
    if (std::sscanf(line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6]) != 8 ||
        std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
      continue;
    }
    busy += v[0] + v[1] + v[2] + v[5] + v[6];  // user nice system irq softirq
  }
  return static_cast<double>(busy) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_cpu_s(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/stat")
                            : "/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace verdictbench
