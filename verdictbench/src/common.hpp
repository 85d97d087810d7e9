// Shared pieces of the verdict benchmark: run options, the workload
// table, sample statistics and the metric sink every workload reports
// into.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace verdictbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run
  bool trace = false;     ///< per-layer run instead of the end-to-end one
};

/// Static description of a workload.
struct WorkloadSpec {
  const char* name;
  bool wire;            ///< drives the AttestationServer over TCP
  bool live_prover;     ///< SimFleet responder instead of replayed transcripts
  std::size_t devices;  ///< enrolled devices, tampered ones included
  std::size_t cache_capacity;   ///< warmed before timing when it holds every device
  std::size_t jobs_per_device;  ///< recorded pool of wire jobs
  double nominal_rate;          ///< verdicts/s of the open-loop phases
};

const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& workloads();

/// Host/build description recorded with every result.
std::string run_config_json(const RunOptions& options,
                            const WorkloadSpec& spec,
                            const std::map<std::string, std::string>& extra);

double now_s();                       ///< steady clock, seconds
double process_cpu_now_s();           ///< CPU time of this process, all threads
std::uint64_t now_ns();               ///< steady clock, nanoseconds
double quantile(std::vector<double> values, double q);  ///< nearest rank
double median(std::vector<double> values);

/// Latency samples split into fixed windows of a phase (see WindowSet).
struct WindowedLatency {
  explicit WindowedLatency(std::size_t windows) : samples(windows) {}
  void add(std::size_t window, double value_ms);
  std::size_t count() const;
  std::vector<std::vector<double>> samples;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics BENCHMARK.json names, in print order, with their units.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Ordered metric sink: the last stdout line is built from it.
class Metrics {
 public:
  /// Declares every metric of `defs` at 0 (a layer a workload does not
  /// reach reads 0); put() may then only set declared names.
  void declare(const std::vector<MetricDef>& defs);
  void put(const std::string& name, double value);
  /// One `metric <name> = <value> <unit>` line per metric on stdout.
  void print_lines() const;
  std::string to_json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Outcome of a run, printed as the final JSON line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< human-readable correctness failures
  Metrics metrics;
};

/// (steal, total) jiffies of the whole host from /proc/stat.
std::pair<std::uint64_t, std::uint64_t> host_cpu_ticks();

/// Share of host CPU time stolen by the hypervisor since construction: a
/// diagnostic recorded with every result, since co-tenants' load shows up
/// as steal and makes every timing of a run slower.
class StealMeter {
 public:
  StealMeter() { std::tie(steal0_, total0_) = host_cpu_ticks(); }
  double share() const;

 private:
  std::uint64_t steal0_ = 0, total0_ = 0;
};

/// Peak resident set of `pid` (0 = self), MiB, from /proc.
double peak_rss_mb(int pid = 0);
/// utime+stime of `pid` (0 = self), seconds, from /proc/<pid>/stat.
double process_cpu_s(int pid = 0);
/// Busy time (user, nice, system, irq, softirq) of `cpus`, seconds, from
/// /proc/stat.  The kernel books the time the hypervisor stole from a CPU
/// apart, as steal; a process's own CPU time counts part of it.
double cpus_busy_s(const std::vector<int>& cpus);

/// Host steal time and CPU time sampled at the edges of the measurement
/// windows of a phase.
class WindowEdges {
 public:
  /// `cpu_clock` gives the CPU seconds windows are charged; by default this
  /// process's CPU time.
  explicit WindowEdges(std::function<double()> cpu_clock = [] { return process_cpu_s(); })
      : cpu_clock_(std::move(cpu_clock)) {}
  void sample();
  std::size_t count() const { return cpu_s_.size(); }
  /// Per window (between consecutive samples): steal share, CPU seconds.
  std::vector<double> steal() const;
  std::vector<double> cpu_s() const;

 private:
  std::function<double()> cpu_clock_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks_;
  std::vector<double> cpu_s_;
};

/// Latency samples and process CPU of the windows of a phase.  Every
/// figure is a median over the windows, so a stall on a shared host moves
/// one window, not the figure.
struct WindowSet {
  WindowSet(const WindowedLatency& latency, const WindowEdges& edges);
  std::vector<std::vector<double>> latency_ms;
  std::vector<double> cpu_s;

  double latency(double q) const;               ///< median of per-window quantiles
  double cpu_us_per_sample() const;             ///< median of per-window CPU/samples
  double samples_per_s(double window_s) const;  ///< median per-window rate
};

RunResult run_wire(const RunOptions& options, const WorkloadSpec& spec);
RunResult run_store_crp(const RunOptions& options, const WorkloadSpec& spec);

}  // namespace verdictbench
