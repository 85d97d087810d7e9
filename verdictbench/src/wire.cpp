// Wire workloads: a forked server process and a one-thread load generator.
//
// The run forks before any set-up.  The child is the server process: it
// enrolls the fleet slice by slice, records every pool job in process
// (ground truth plus prover transcripts), warms the emulator cache and
// serves a real net::AttestationServer on loopback TCP.  The parent is the
// load generator: one thread, nproc connections, requests pipelined over
// the connections.  Its phases are open loop (Poisson arrivals on a seeded
// schedule, each request timed from its due time) or closed loop (a fixed
// number of requests outstanding, each timed from its send).  The parent
// measures the child from outside (CPU from /proc/<pid>/stat, peak RSS from
// /proc/<pid>/status) and steers it over a pipe of text lines.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "fleet.hpp"
#include "layers.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace verdictbench {

namespace core = pufatt::core;
namespace net = pufatt::net;
namespace obs = pufatt::obs;
namespace service = pufatt::service;

namespace {

/// How long a phase waits for its last replies past the schedule.
constexpr double kDrainS = 2.0;
/// Measurement windows of a timed phase; its figures are medians over them.
constexpr std::size_t kWindows = 8;
/// Requests kept outstanding per pool worker in the saturated phase: enough
/// to keep every worker busy, far below the pool's queue capacity.
constexpr std::size_t kSaturationDepthPerWorker = 4;

std::size_t host_threads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

/// CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling process to CPUs [first, last) of `cpus`.
void pin(const std::vector<int>& cpus, std::size_t first, std::size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < last && i < cpus.size(); ++i) CPU_SET(cpus[i], &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

// ------------------------------------------------------------ pipe lines

/// Line-oriented messages over a pair of pipe fds.  A message is a run of
/// lines closed by a line reading "end".
class LineIO {
 public:
  enum class Read { kLine, kTimeout, kEof };

  LineIO(int read_fd, int write_fd) : rfd_(read_fd), wfd_(write_fd) {}

  Read read_line(std::string& line, double timeout_s) {
    const double deadline = now_s() + timeout_s;
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return Read::kLine;
      }
      const double left = deadline - now_s();
      if (left <= 0.0) return Read::kTimeout;
      pollfd pfd{rfd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1e3)));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return rc == 0 ? Read::kTimeout : Read::kEof;
      char chunk[65536];
      const ssize_t n = ::read(rfd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Read::kEof;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::vector<std::string> read_message(double timeout_s) {
    std::vector<std::string> lines;
    const double deadline = now_s() + timeout_s;
    std::string line;
    for (;;) {
      const Read r = read_line(line, std::max(0.0, deadline - now_s()));
      if (r == Read::kTimeout) throw std::runtime_error("server process timed out");
      if (r == Read::kEof) throw std::runtime_error("server process exited");
      if (line == "end") return lines;
      if (line.rfind("error ", 0) == 0) {
        throw std::runtime_error("server process: " + line.substr(6));
      }
      lines.push_back(line);
    }
  }

  void write(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(wfd_, text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("pipe write failed");
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  int rfd_;
  int wfd_;
  std::string buf_;
};

using KeyValues = std::map<std::string, double>;

KeyValues parse_keys(const std::vector<std::string>& lines) {
  KeyValues out;
  for (const auto& line : lines) {
    if (line.rfind("k ", 0) != 0) continue;
    std::istringstream in(line.substr(2));
    std::string key;
    double value = 0.0;
    in >> key >> value;
    out[key] = value;
  }
  return out;
}

std::string key_line(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %.17g\n", value);
  return "k " + key + buf;
}

// --------------------------------------------------------- server process

bool find_note(const obs::SpanRecord& rec, const char* key, double& value) {
  for (std::size_t i = 0; i < rec.note_count; ++i) {
    if (std::strcmp(rec.notes[i].key, key) == 0) {
      value = rec.notes[i].value;
      return true;
    }
  }
  return false;
}

double span_us(const obs::SpanRecord& rec) {
  return static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
}

/// Per-layer figures from the server's own spans, plus the per-request
/// server coverage the generator needs for the unattributed share.
std::string trace_report(obs::Tracer& tracer) {
  const auto records = tracer.records();
  std::unordered_map<std::uint64_t, double> build_by_parent;
  std::vector<double> queue_wait, builds;
  for (const auto& rec : records) {
    if (std::strcmp(rec.name, "pool.queue_wait") == 0) {
      queue_wait.push_back(span_us(rec));
    } else if (std::strcmp(rec.name, "cache.build") == 0) {
      builds.push_back(span_us(rec));
      build_by_parent[rec.parent] += span_us(rec);
    }
  }
  std::vector<double> lease_wait;
  std::unordered_map<std::uint64_t, std::pair<double, double>> coverage;
  for (const auto& rec : records) {
    double trace = 0.0;
    if (std::strcmp(rec.name, "cache.acquire") == 0) {
      const auto it = build_by_parent.find(rec.id);
      lease_wait.push_back(span_us(rec) -
                           (it == build_by_parent.end() ? 0.0 : it->second));
    } else if (std::strcmp(rec.name, "pool.job") == 0 &&
               find_note(rec, "trace", trace)) {
      coverage[static_cast<std::uint64_t>(trace)].first += span_us(rec);
    } else if (std::strcmp(rec.name, "net.reply") == 0 &&
               find_note(rec, "trace", trace)) {
      coverage[static_cast<std::uint64_t>(trace)].second += span_us(rec);
    }
  }
  std::string out;
  out += key_line("service.queue_wait_us_p50", quantile(queue_wait, 0.5));
  out += key_line("service.queue_wait_us_p99", quantile(queue_wait, 0.99));
  out += key_line("service.cache.build_us_p50", quantile(builds, 0.5));
  out += key_line("service.lease_wait_us_p99", quantile(lease_wait, 0.99));
  out += key_line("trace.dropped", static_cast<double>(tracer.dropped()));
  out += key_line("trace.spans", static_cast<double>(records.size()));
  char buf[96];
  for (const auto& [trace, cov] : coverage) {
    std::snprintf(buf, sizeof(buf), "cov %llu %.3f %.3f\n",
                  static_cast<unsigned long long>(trace), cov.first, cov.second);
    out += buf;
  }
  return out;
}

std::string stats_report(const net::AttestationServer& server,
                         const service::EmulatorCache& cache) {
  const auto c = server.counters();
  const auto m = server.pool().metrics_snapshot();
  const auto k = cache.counters();
  std::string out;
  out += key_line("requests", static_cast<double>(c.requests));
  out += key_line("verdicts_sent", static_cast<double>(c.verdicts_sent));
  out += key_line("busy_replies", static_cast<double>(c.busy_replies));
  out += key_line("error_replies", static_cast<double>(c.error_replies));
  out += key_line("replies_dropped", static_cast<double>(c.replies_dropped));
  out += key_line("decode_errors", static_cast<double>(c.decode_errors));
  out += key_line("bytes_in", static_cast<double>(c.bytes_in));
  out += key_line("bytes_out", static_cast<double>(c.bytes_out));
  out += key_line("queue_depth_hwm", static_cast<double>(m.queue_depth_hwm));
  out += key_line("cache_hits", static_cast<double>(k.hits));
  out += key_line("cache_misses", static_cast<double>(k.misses));
  out += key_line("cache_discarded", static_cast<double>(k.discarded));
  out += key_line("sim_compiles", static_cast<double>(
                                       obs::global_registry().counter("sim.compiles").value()));
  return out;
}

int server_process(const RunOptions& options, const WorkloadSpec& spec,
                   const std::vector<PoolJob>& pool, LineIO& io) {
  const std::size_t threads = host_threads();
  BenchFleet fleet(spec, options.seed);
  service::EmulatorCache cache(fleet, fleet.code(), spec.cache_capacity);
  std::vector<Truth> truth(pool.size());
  std::vector<std::shared_ptr<const Transcript>> transcripts(pool.size());

  // Set-up, one slice at a time: enroll, record, warm.
  std::string ready;
  for (std::size_t s = 0; s < kSetupSlices; ++s) {
    const double cpu0 = process_cpu_now_s();
    fleet.enroll_slice(s);
    std::vector<std::size_t> jobs;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].slice == s) jobs.push_back(i);
    }
    record_jobs(fleet, pool, jobs, threads, truth, transcripts);
    if (spec.cache_capacity >= spec.devices) {
      for (const std::size_t i : jobs) (void)cache.acquire(pool[i].device_id);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "slice %.9f\n", process_cpu_now_s() - cpu0);
    ready += buf;
  }

  std::unordered_map<std::uint64_t, std::shared_ptr<const Transcript>> by_seed;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_seed.emplace(pool[i].rng_seed, transcripts[i]);
  }
  net::ResponderFactory factory;
  if (spec.live_prover) {
    factory = [&fleet](const net::JobRequest& request) {
      return fleet.live_responder(request.device_id, request.rng_seed);
    };
  } else {
    factory = [&by_seed](const net::JobRequest& request) -> core::Responder {
      const auto it = by_seed.find(request.rng_seed);
      if (it == by_seed.end()) return {};
      return replay_responder(it->second);
    };
  }

  obs::Tracer tracer;
  net::ServerConfig config;
  config.endpoint = net::Endpoint::tcp("127.0.0.1", 0);
  config.pool.workers = threads - 1;
  config.pool.queue_capacity = 4096;
  if (options.trace) {
    // Traced runs only: untraced runs attach no tracer at all.
    config.tracer = &tracer;
    config.pool.tracer = &tracer;
  }
  net::AttestationServer server(cache, factory, config);
  std::thread runner([&server] { server.run(); });
  // Stops and joins the loop thread on every exit path, exceptions included.
  struct Joiner {
    net::AttestationServer& server;
    std::thread& runner;
    ~Joiner() {
      server.stop();
      runner.join();
    }
  } joiner{server, runner};

  ready += "ready " + std::to_string(server.bound_endpoint().port) + "\n";
  char buf[160];
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const Truth& t = truth[i];
    std::snprintf(buf, sizeof(buf), "t %zu %d %d %u %a %d\n", i, t.outcome,
                  t.status, t.attempts, t.total_us, t.last_verify);
    ready += buf;
  }
  io.write(ready + "end\n");

  bool tracing = false;
  std::string cmd;
  for (;;) {
    const auto r = io.read_line(cmd, tracing ? 0.01 : 3600.0);
    if (r == LineIO::Read::kEof) break;
    if (r == LineIO::Read::kTimeout) {
      if (tracing) tracer.drain();  // keep the per-thread rings from overflowing
      continue;
    }
    if (cmd == "stats") {
      io.write(stats_report(server, cache) + "end\n");
    } else if (cmd == "trace_on") {
      tracer.clear();
      tracer.set_enabled(true);
      tracing = true;
      io.write("end\n");
    } else if (cmd == "trace_off") {
      tracer.set_enabled(false);
      tracing = false;
      io.write(trace_report(tracer) + "end\n");
      tracer.clear();
    } else if (cmd.rfind("layers ", 0) == 0) {
      std::vector<const OwnedDevice*> devices;
      for (const auto& owned : fleet.tampered()) {
        if (devices.size() < 4) devices.push_back(&owned);
      }
      const auto pass = isolated_pass(devices, fleet.code(),
                                      std::strtod(cmd.c_str() + 7, nullptr),
                                      options.seed ^ 0x1A7E);
      std::string out;
      for (const auto& [key, value] : pass.metrics) out += key_line(key, value);
      io.write(out + "end\n");
    }
  }
  return 0;
}

// --------------------------------------------------------------- generator

struct PhaseStats {
  PhaseStats(std::size_t windows, const std::function<double()>& server_cpu_s)
      : latency(windows), edges(server_cpu_s) {}
  std::uint64_t sent = 0, verdicts = 0, busy = 0, errors = 0, lost = 0;
  std::uint64_t diverged = 0, forged = 0, stray = 0;
  std::uint64_t honest = 0, honest_not_accepted = 0, attempts = 0;
  std::uint64_t reject_reconstruction = 0, reject_checksum = 0, reject_time = 0;
  WindowedLatency latency;            ///< ms from due time, verdicts only
  std::vector<double> lateness_us;    ///< send time minus due time
  std::vector<std::pair<std::uint64_t, double>> traced;  ///< trace id, latency us
  WindowEdges edges;                  ///< steal and server CPU at window edges
  std::uint64_t in_window = 0;        ///< verdicts received inside the schedule
  double span_s = 0.0;                ///< scheduled duration
  std::uint64_t failed() const { return busy + errors + lost + diverged; }
  /// Verdicts delivered per second while the schedule ran.
  double goodput() const {
    return span_s > 0.0 ? static_cast<double>(in_window) / span_s : 0.0;
  }
};

class Generator {
 public:
  Generator(const net::Endpoint& endpoint, std::size_t connections,
            const std::vector<PoolJob>& pool, const std::vector<Truth>& truth,
            std::function<double()> server_cpu_s)
      : pool_(pool), truth_(truth), server_cpu_s_(std::move(server_cpu_s)) {
    for (std::size_t c = 0; c < connections; ++c) {
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = net::connect_to(endpoint);
    }
  }

  /// Open-loop phase: round(rate * duration_s) measured arrivals, Poisson
  /// conditioned on that count over [0, duration_s).  Arrivals continue
  /// at the same rate, unmeasured, until every measured reply is in, so
  /// the last measured requests see steady traffic rather than the end of
  /// the schedule.  Gives up kDrainS past the schedule.
  PhaseStats run(double rate, double duration_s, std::size_t windows,
                 pufatt::support::Xoshiro256pp& rng, bool traced) {
    PhaseStats stats(windows, server_cpu_s_);
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(rate * duration_s)));
    auto exp_gap = [&rng] {
      const double u = (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
      return -std::log(u);
    };
    // Uniform order statistics via normalized exponential gaps.
    std::vector<double> due(n + 1);
    double acc = 0.0;
    for (std::size_t k = 0; k <= n; ++k) {
      acc += exp_gap();
      due[k] = acc;
    }
    const double span_ns = duration_s * 1e9;
    pending_.assign(n, Pending{});
    for (std::size_t k = 0; k < n; ++k) {
      pending_[k].job = static_cast<std::size_t>(rng.next() % pool_.size());
      pending_[k].due_offset_ns = static_cast<std::uint64_t>(due[k] / acc * span_ns);
      pending_[k].measured = true;
    }
    const double mean_gap_ns = 1e9 / rate;
    double filler_due_ns = span_ns;
    auto add_filler = [&] {
      filler_due_ns += exp_gap() * mean_gap_ns;
      Pending p;
      p.job = static_cast<std::size_t>(rng.next() % pool_.size());
      p.due_offset_ns = static_cast<std::uint64_t>(filler_due_ns);
      pending_.push_back(p);
    };
    begin(stats, windows, span_ns, traced, now_ns() + 1'000'000);  // starts in 1 ms
    const std::uint64_t drain_deadline =
        t0_ + static_cast<std::uint64_t>(span_ns + kDrainS * 1e9);
    std::size_t next = 0;
    for (;;) {
      const bool feeding = next < n || measured_outstanding_ > 0;
      if (feeding && next == pending_.size()) add_filler();
      const std::uint64_t now = now_ns();
      if (stats.edges.count() <= windows && now >= edge_ns(stats.edges.count())) {
        stats.edges.sample();
        continue;
      }
      if (feeding && t0_ + pending_[next].due_offset_ns <= now) {
        send(next);
        ++next;
        continue;
      }
      if (!feeding && outstanding_ == 0) break;
      if (now >= drain_deadline) break;
      const std::uint64_t wake =
          feeding ? t0_ + pending_[next].due_offset_ns : drain_deadline;
      const std::uint64_t wait_ns = wake > now ? wake - now : 0;
      pump(wait_ns);
    }
    finish(stats, next < n ? n - next : 0, duration_s);
    return stats;
  }

  /// Closed-loop phase: keeps `depth` requests outstanding for duration_s,
  /// each timed from its send.  Every request sent inside the duration is
  /// measured; gives up on the last replies kDrainS past the end.
  PhaseStats run_closed(std::size_t depth, double duration_s, std::size_t windows,
                        pufatt::support::Xoshiro256pp& rng) {
    PhaseStats stats(windows, server_cpu_s_);
    const double span_ns = duration_s * 1e9;
    pending_.clear();
    begin(stats, windows, span_ns, false, now_ns());
    const std::uint64_t end = t0_ + static_cast<std::uint64_t>(span_ns);
    const std::uint64_t drain_deadline = end + static_cast<std::uint64_t>(kDrainS * 1e9);
    for (;;) {
      const std::uint64_t now = now_ns();
      if (stats.edges.count() <= windows && now >= edge_ns(stats.edges.count())) {
        stats.edges.sample();
        continue;
      }
      if (now < end && outstanding_ < depth) {
        Pending p;
        p.job = static_cast<std::size_t>(rng.next() % pool_.size());
        p.due_offset_ns = now - t0_;
        p.measured = true;
        pending_.push_back(p);
        send(pending_.size() - 1);
        continue;
      }
      if (now >= end && outstanding_ == 0 && stats.edges.count() > windows) break;
      if (now >= drain_deadline) break;
      const std::uint64_t wake =
          stats.edges.count() <= windows ? edge_ns(stats.edges.count()) : drain_deadline;
      const std::uint64_t wait_ns = wake > now ? wake - now : 0;
      pump(wait_ns);
    }
    finish(stats, 0, duration_s);
    stats.lateness_us.clear();  // a closed loop sends on replies, never late
    return stats;
  }

 private:
  struct Conn {
    net::Fd fd;
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool alive = true;
  };
  struct Pending {
    std::size_t job = 0;
    std::uint64_t due_offset_ns = 0;
    std::size_t conn = 0;
    bool done = true;
    bool measured = false;  ///< false: filler after the measured schedule
  };

  void begin(PhaseStats& stats, std::size_t windows, double span_ns, bool traced,
             std::uint64_t t0) {
    base_tag_ = next_tag_;
    stats_ = &stats;
    windows_ = windows;
    span_ns_ = span_ns;
    traced_ = traced;
    outstanding_ = 0;
    measured_outstanding_ = 0;
    t0_ = t0;
  }

  /// Wall-clock time of window edge w; host steal and server CPU are
  /// sampled there.
  std::uint64_t edge_ns(std::size_t w) const {
    return t0_ + static_cast<std::uint64_t>(span_ns_ * static_cast<double>(w) /
                                            static_cast<double>(windows_));
  }

  /// Counts measured requests never answered (or never sent) as lost.
  void finish(PhaseStats& stats, std::size_t unsent, double duration_s) {
    while (stats.edges.count() <= windows_) stats.edges.sample();
    next_tag_ += pending_.size();
    stats.lost += measured_outstanding_ + unsent;
    stats.span_s = duration_s;
    stats_ = nullptr;
  }

  /// Waits up to wait_ns for socket events and handles them.
  void pump(std::uint64_t wait_ns) {
    pfds_.resize(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      pfds_[c].fd = conns_[c]->alive ? conns_[c]->fd.get() : -1;
      pfds_[c].events = static_cast<short>(
          POLLIN | (conns_[c]->out.size() > conns_[c]->out_off ? POLLOUT : 0));
      pfds_[c].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int rc = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (rc <= 0) return;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (pfds_[c].revents & POLLOUT) flush(*conns_[c]);
      if (pfds_[c].revents & (POLLIN | POLLHUP | POLLERR)) receive(*conns_[c]);
    }
  }

  void send(std::size_t k) {
    Pending& p = pending_[k];
    const std::uint64_t due_ns = t0_ + p.due_offset_ns;
    std::size_t c = rr_++ % conns_.size();
    for (std::size_t tries = 0; !conns_[c]->alive && tries < conns_.size(); ++tries) {
      c = rr_++ % conns_.size();
    }
    Conn& conn = *conns_[c];
    if (!conn.alive) {  // every connection died: counted as sent and lost
      if (p.measured) {
        ++stats_->sent;
        ++stats_->lost;
      }
      return;
    }
    const PoolJob& job = pool_[p.job];
    const std::uint64_t tag = base_tag_ + k;
    net::JobRequest request{job.device_id, job.channel_seed, job.rng_seed, tag};
    const auto frame = net::encode_job_request(
        request, traced_ ? net::TraceContext{tag, tag} : net::TraceContext{});
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    p.conn = c;
    p.done = false;
    ++outstanding_;
    if (p.measured) {
      ++measured_outstanding_;
      ++stats_->sent;
    }
    stats_->lateness_us.push_back(static_cast<double>(now_ns() - due_ns) / 1e3);
    flush(conn);
  }

  void flush(Conn& conn) {
    while (conn.alive && conn.out_off < conn.out.size()) {
      const ssize_t w = ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        conn.alive = false;
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }

  /// Reads and handles every available frame.
  void receive(Conn& conn) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t r = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
      if (r > 0) {
        frames_.clear();
        if (!conn.decoder.feed(buf, static_cast<std::size_t>(r), frames_)) {
          conn.alive = false;
        }
        for (const auto& frame : frames_) handle(frame);
        if (!conn.alive) return;
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.alive = false;  // EOF or hard error: its outstanding jobs are lost
      return;
    }
  }

  Pending* claim(std::uint64_t tag) {
    if (tag < base_tag_ || tag >= base_tag_ + pending_.size()) {
      ++stats_->stray;
      return nullptr;
    }
    Pending& p = pending_[tag - base_tag_];
    if (p.done) {
      ++stats_->stray;
      return nullptr;
    }
    p.done = true;
    --outstanding_;
    if (p.measured) --measured_outstanding_;
    return &p;
  }

  /// Compares a verdict with ground truth; false when it diverged.
  bool check(const Pending& p, const net::VerdictReply& reply) {
    const PoolJob& job = pool_[p.job];
    const Truth& t = truth_[p.job];
    const bool accepted = reply.outcome == service::JobOutcome::kAccepted;
    const bool matches =
        static_cast<int>(reply.outcome) == t.outcome &&
        static_cast<int>(reply.status) == t.status &&
        reply.attempts == t.attempts &&
        std::bit_cast<std::uint64_t>(reply.total_us) ==
            std::bit_cast<std::uint64_t>(t.total_us);
    if (!matches) ++stats_->diverged;
    if (job.tampered && accepted) ++stats_->forged;
    return matches;
  }

  void handle(const net::FrameDecoder::Frame& frame) {
    const std::uint64_t recv_ns = now_ns();
    PhaseStats& s = *stats_;
    switch (frame.type) {
      case net::MsgType::kVerdictReply: {
        const auto reply = net::decode_verdict_reply(frame.payload);
        Pending* p = claim(reply.tag);
        if (p == nullptr) return;
        const PoolJob& job = pool_[p->job];
        const Truth& t = truth_[p->job];
        if (!check(*p, reply) || !p->measured) return;
        const std::uint64_t due_ns = t0_ + p->due_offset_ns;
        const double latency_ms = static_cast<double>(recv_ns - due_ns) / 1e6;
        const auto window = static_cast<std::size_t>(
            static_cast<double>(p->due_offset_ns) / span_ns_ *
            static_cast<double>(windows_));
        ++s.verdicts;
        if (static_cast<double>(recv_ns - t0_) <= span_ns_) ++s.in_window;
        s.attempts += reply.attempts;
        s.latency.add(window, latency_ms);
        if (traced_ && frame.trace.traced()) {
          s.traced.emplace_back(frame.trace.trace_id, latency_ms * 1e3);
        }
        const bool accepted = reply.outcome == service::JobOutcome::kAccepted;
        if (!job.tampered) {
          ++s.honest;
          if (!accepted) {
            ++s.honest_not_accepted;
            switch (t.last_verify) {
              case static_cast<int>(core::VerifyStatus::kPufReconstructionFailed):
                ++s.reject_reconstruction;
                break;
              case static_cast<int>(core::VerifyStatus::kChecksumMismatch):
                ++s.reject_checksum;
                break;
              case static_cast<int>(core::VerifyStatus::kTimeExceeded):
                ++s.reject_time;
                break;
              default: break;
            }
          }
        }
        return;
      }
      case net::MsgType::kBusyReply: {
        const auto reply = net::decode_busy_reply(frame.payload);
        const Pending* p = claim(reply.tag);
        if (p != nullptr && p->measured) ++s.busy;
        return;
      }
      case net::MsgType::kErrorReply: {
        const auto reply = net::decode_error_reply(frame.payload);
        const Pending* p = claim(reply.tag);
        if (p != nullptr && p->measured) ++s.errors;
        return;
      }
      default:
        ++s.stray;
        return;
    }
  }

  const std::vector<PoolJob>& pool_;
  const std::vector<Truth>& truth_;
  std::function<double()> server_cpu_s_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Pending> pending_;
  std::vector<net::FrameDecoder::Frame> frames_;
  std::vector<pollfd> pfds_;
  PhaseStats* stats_ = nullptr;
  std::uint64_t next_tag_ = 1;
  std::uint64_t base_tag_ = 1;
  std::uint64_t t0_ = 0;
  std::size_t outstanding_ = 0;           ///< filler included
  std::size_t measured_outstanding_ = 0;
  std::size_t rr_ = 0;
  std::size_t windows_ = 1;
  double span_ns_ = 1.0;
  bool traced_ = false;
};

// ------------------------------------------------------------ orchestration

/// Owns the forked server process: stops and reaps it on every path.
class ServerProcess {
 public:
  ServerProcess(const RunOptions& options, const WorkloadSpec& spec,
                const std::vector<PoolJob>& pool) {
    int to_child[2], to_parent[2];
    if (::pipe(to_child) != 0 || ::pipe(to_parent) != 0) {
      throw std::runtime_error("pipe failed");
    }
    // The generator gets a CPU of its own and the server the rest, so
    // neither steals the other's time slices.
    const auto cpus = allowed_cpus();
    const bool split = cpus.size() >= 2;
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (split) pin(cpus, 0, cpus.size() - 1);
      ::close(to_child[1]);
      ::close(to_parent[0]);
      LineIO io(to_child[0], to_parent[1]);
      int code = 1;
      try {
        code = server_process(options, spec, pool, io);
      } catch (const std::exception& e) {
        std::string what = e.what();
        std::replace(what.begin(), what.end(), '\n', ' ');
        try {
          io.write("error " + what + "\n");
        } catch (...) {
        }
      }
      ::_exit(code);
    }
    if (split) {
      pin(cpus, cpus.size() - 1, cpus.size());
      cpus_.assign(cpus.begin(), cpus.end() - 1);
    }
    ::close(to_child[0]);
    ::close(to_parent[1]);
    io_ = std::make_unique<LineIO>(to_parent[0], to_child[1]);
    rfd_ = to_parent[0];
    wfd_ = to_child[1];
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::close(wfd_);  // EOF on the command pipe stops the server
      int status = 0;
      const double deadline = now_s() + 20.0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_s() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(2000);
      }
      ::close(rfd_);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::vector<std::string> call(const std::string& command, double timeout_s = 60.0) {
    io_->write(command + "\n");
    return io_->read_message(timeout_s);
  }
  std::vector<std::string> read_message(double timeout_s) {
    return io_->read_message(timeout_s);
  }
  int pid() const { return pid_; }
  /// CPUs the server process is pinned to; empty when it shares them all.
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  int pid_ = -1;
  std::vector<int> cpus_;
  int rfd_ = -1;
  int wfd_ = -1;
  std::unique_ptr<LineIO> io_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Folds a phase's correctness tallies into the run result.
void check_phase(const char* name, const PhaseStats& s, RunResult& result) {
  if (s.diverged > 0) {
    result.correct = false;
    result.errors.push_back(std::string(name) + ": " + std::to_string(s.diverged) +
                            " wire verdicts differ from ground truth");
  }
  if (s.forged > 0) {
    result.correct = false;
    result.errors.push_back(std::string(name) + ": " + std::to_string(s.forged) +
                            " tampered devices accepted");
  }
}

}  // namespace

RunResult run_wire(const RunOptions& options, const WorkloadSpec& spec) {
  RunResult result;
  result.metrics.declare(options.trace ? per_layer_metrics() : end_to_end_metrics());
  const auto pool = make_pool(spec, options.seed);
  const StealMeter steal;
  const std::size_t host_cpus = allowed_cpus().size();  // before pinning

  const double spawn = now_s();
  ServerProcess server(options, spec, pool);
  const auto ready = server.read_message(150.0);
  const double ready_wall_s = now_s() - spawn;

  std::vector<Truth> truth(pool.size());
  std::vector<double> slices;
  std::uint16_t port = 0;
  for (const auto& line : ready) {
    if (line.rfind("slice ", 0) == 0) {
      slices.push_back(std::strtod(line.c_str() + 6, nullptr));
    } else if (line.rfind("ready ", 0) == 0) {
      port = static_cast<std::uint16_t>(std::strtoul(line.c_str() + 6, nullptr, 10));
    } else if (line.rfind("t ", 0) == 0) {
      std::size_t i = 0;
      Truth t;
      char total[64];
      if (std::sscanf(line.c_str(), "t %zu %d %d %u %63s %d", &i, &t.outcome,
                      &t.status, &t.attempts, total, &t.last_verify) != 6 ||
          i >= truth.size()) {
        throw std::runtime_error("bad ground-truth line");
      }
      t.total_us = std::strtod(total, nullptr);
      truth[i] = t;
    }
  }
  // Ground truth itself must never accept a tampered device.
  double pool_attempts = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool_attempts += truth[i].attempts;
    if (pool[i].tampered &&
        truth[i].outcome == static_cast<int>(service::JobOutcome::kAccepted)) {
      result.correct = false;
      result.errors.push_back("in-process verdict accepted tampered device " +
                              pool[i].device_id);
    }
  }

  const std::size_t connections = host_threads();
  // Server CPU per window: the busy time of the server's own CPUs, which
  // leaves out the time the hypervisor stole from them; its process CPU
  // time when it has no CPUs of its own.
  const int server_pid = server.pid();
  const auto server_cpu_s =
      server.cpus().empty()
          ? std::function<double()>([server_pid] { return process_cpu_s(server_pid); })
          : std::function<double()>([cpus = server.cpus()] { return cpus_busy_s(cpus); });
  Generator gen(net::Endpoint::tcp("127.0.0.1", port), connections, pool, truth,
                server_cpu_s);
  pufatt::support::Xoshiro256pp rng(options.seed * 0x2545F4914F6CDD1DULL + 0x6E17);
  auto stats = [&server] { return parse_keys(server.call("stats")); };

  // Untimed warm-up: connections, server threads, the cold cache's steady state.
  const PhaseStats warm = gen.run(spec.nominal_rate, 0.3, 1, rng, false);
  check_phase("warm-up", warm, result);

  std::vector<double> lateness;
  std::uint64_t stray = 0;  // replies matching no outstanding request
  auto keep_lateness = [&lateness, &stray](const PhaseStats& s) {
    lateness.insert(lateness.end(), s.lateness_us.begin(), s.lateness_us.end());
    stray += s.stray;
  };
  const std::size_t depth = kSaturationDepthPerWorker * (connections - 1);
  std::map<std::string, std::string> config = {
      {"server_workers", std::to_string(connections - 1)},
      {"connections", std::to_string(connections)},
      {"server_cpus", std::to_string(host_cpus >= 2 ? host_cpus - 1 : host_cpus)},
      {"server_cpu_clock", server.cpus().empty() ? "\"process\"" : "\"proc_stat_cpus\""},
      {"devices", std::to_string(spec.devices)},
      {"cache_capacity", std::to_string(spec.cache_capacity)},
      {"pool_jobs", std::to_string(pool.size())},
      {"prover", spec.live_prover ? "\"live\"" : "\"replay\""},
      {"nominal_rate", fmt(spec.nominal_rate)},
      {"saturation_depth", std::to_string(depth)},
      {"ready_wall_s", fmt(ready_wall_s)},
      {"pool_attempts_mean", fmt(pool_attempts / static_cast<double>(pool.size()))},
  };
  auto window_list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += fmt(values[i]);
    }
    return out + "]";
  };

  if (!options.trace) {
    // Saturation: every worker busy, a bounded queue behind them.
    const double saturated_s = 0.8 * options.seconds;
    const PhaseStats saturated = gen.run_closed(depth, saturated_s, kWindows, rng);
    check_phase("saturated", saturated, result);
    keep_lateness(saturated);
    const WindowSet windows(saturated.latency, saturated.edges);
    result.attempted = saturated.sent;
    result.failed = saturated.failed();

    result.metrics.put("setup_s", static_cast<double>(kSetupSlices) * median(slices));
    result.metrics.put("cpu_us_per_verdict", windows.cpu_us_per_sample());
    result.metrics.put("peak_rss_mb", peak_rss_mb(server.pid()));
    std::vector<double> cpu_us;
    for (std::size_t w = 0; w < kWindows; ++w) {
      cpu_us.push_back(ratio(windows.cpu_s[w] * 1e6,
                             static_cast<double>(windows.latency_ms[w].size())));
    }
    config["saturated_samples"] = std::to_string(saturated.latency.count());
    config["saturated_vps"] =
        fmt(windows.samples_per_s(saturated_s / static_cast<double>(kWindows)));
    config["saturated_window_cpu_us"] = window_list(cpu_us);
    config["saturated_window_steal"] = window_list(saturated.edges.steal());
  } else {
    const double phase_s = 0.2 * options.seconds;
    const double cpu0 = process_cpu_s(server.pid());
    const PhaseStats plain = gen.run(spec.nominal_rate, phase_s, kWindows, rng, false);
    const double cpu1 = process_cpu_s(server.pid());
    check_phase("untraced", plain, result);
    keep_lateness(plain);
    const WindowSet plain_windows(plain.latency, plain.edges);

    // Unloaded latency: one request outstanding at a time.
    const PhaseStats serial = gen.run_closed(1, 0.1 * options.seconds, kWindows, rng);
    check_phase("serial", serial, result);
    keep_lateness(serial);
    const WindowSet serial_windows(serial.latency, serial.edges);

    const double saturated_s = 0.15 * options.seconds;
    const PhaseStats saturated = gen.run_closed(depth, saturated_s, kWindows, rng);
    check_phase("saturated", saturated, result);
    keep_lateness(saturated);
    const WindowSet saturated_windows(saturated.latency, saturated.edges);

    const auto before = stats();
    server.call("trace_on");
    const double cpu2 = process_cpu_s(server.pid());
    const PhaseStats traced = gen.run(spec.nominal_rate, 0.25 * options.seconds, 1, rng, true);
    const double cpu3 = process_cpu_s(server.pid());
    const auto trace_lines = server.call("trace_off");
    const auto after = stats();
    check_phase("traced", traced, result);
    keep_lateness(traced);
    const auto spans = parse_keys(trace_lines);
    const auto layers = parse_keys(server.call(
        "layers " + fmt(std::max(0.5, 0.2 * options.seconds)), 120.0));

    std::unordered_map<std::uint64_t, std::pair<double, double>> coverage;
    for (const auto& line : trace_lines) {
      unsigned long long id = 0;
      double job_us = 0.0, reply_us = 0.0;
      if (std::sscanf(line.c_str(), "cov %llu %lf %lf", &id, &job_us, &reply_us) == 3) {
        coverage[id] = {job_us, reply_us};
      }
    }
    std::vector<double> wire_us;
    double client_total = 0.0, uncovered = 0.0;
    for (const auto& [id, latency_us] : traced.traced) {
      const auto it = coverage.find(id);
      const double job_us = it == coverage.end() ? 0.0 : it->second.first;
      const double reply_us = it == coverage.end() ? 0.0 : it->second.second;
      wire_us.push_back(latency_us - job_us);
      client_total += latency_us;
      uncovered += std::max(0.0, latency_us - job_us - reply_us);
    }

    auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
    const double verdicts = delta("verdicts_sent");
    for (const PhaseStats* s : {&plain, &serial, &saturated, &traced}) {
      result.attempted += s->sent;
      result.failed += s->failed();
    }
    auto& m = result.metrics;
    m.put("capacity_vps",
          saturated_windows.samples_per_s(saturated_s / static_cast<double>(kWindows)));
    m.put("latency_p50_ms", serial_windows.latency(0.5));
    m.put("latency_p99_ms", plain_windows.latency(0.99));
    m.put("throughput_vps", traced.goodput());
    m.put("fail_ratio", ratio(static_cast<double>(result.failed),
                              static_cast<double>(result.attempted)));
    m.put("false_reject_ratio",
          ratio(static_cast<double>(plain.honest_not_accepted + traced.honest_not_accepted),
                static_cast<double>(plain.honest + traced.honest)));
    m.put("net.wire_us_p50", quantile(wire_us, 0.5));
    m.put("net.bytes_per_verdict", ratio(delta("bytes_in") + delta("bytes_out"), verdicts));
    m.put("net.shed_ratio", ratio(delta("busy_replies"), delta("requests")));
    m.put("net.decode_errors", after.at("decode_errors"));
    m.put("net.replies_dropped", after.at("replies_dropped"));
    m.put("service.queue_wait_us_p50", spans.at("service.queue_wait_us_p50"));
    m.put("service.queue_wait_us_p99", spans.at("service.queue_wait_us_p99"));
    m.put("service.queue_depth_hwm", after.at("queue_depth_hwm"));
    m.put("service.cache.hit_ratio",
          ratio(delta("cache_hits"), delta("cache_hits") + delta("cache_misses")));
    m.put("service.cache.builds_per_verdict", ratio(delta("cache_misses"), verdicts));
    m.put("service.cache.build_us_p50", spans.at("service.cache.build_us_p50"));
    m.put("service.cache.discarded", delta("cache_discarded"));
    m.put("service.lease_wait_us_p99", spans.at("service.lease_wait_us_p99"));
    m.put("timingsim.compiles_per_verdict", ratio(delta("sim_compiles"), verdicts));
    m.put("core.session.attempts_per_verdict",
          ratio(static_cast<double>(traced.attempts), static_cast<double>(traced.verdicts)));
    m.put("core.reject.reconstruction",
          static_cast<double>(plain.reject_reconstruction + traced.reject_reconstruction));
    m.put("core.reject.checksum",
          static_cast<double>(plain.reject_checksum + traced.reject_checksum));
    m.put("core.reject.time", static_cast<double>(plain.reject_time + traced.reject_time));
    for (const auto& [key, value] : layers) m.put(key, value);
    m.put("trace.unattributed_share", ratio(uncovered, client_total));
    m.put("trace.overhead",
          ratio((cpu3 - cpu2) * 1e6, static_cast<double>(traced.verdicts)) -
              ratio((cpu1 - cpu0) * 1e6, static_cast<double>(plain.verdicts)));
    config["nominal_samples"] = std::to_string(plain.latency.count());
    config["serial_samples"] = std::to_string(serial.latency.count());
    config["saturated_samples"] = std::to_string(saturated.latency.count());
    config["traced_requests"] = std::to_string(traced.traced.size());
    config["trace_spans"] = fmt(spans.at("trace.spans"));
    config["trace_dropped"] = fmt(spans.at("trace.dropped"));
    if (spans.at("trace.dropped") > 0) {
      std::fprintf(stderr, "verdictbench: tracer dropped spans\n");
    }
  }
  server.call("stats");  // the server is still answering after the run

  config["host_steal_share"] = fmt(steal.share());
  config["stray_replies"] = std::to_string(stray);
  config["generator_late_p99_us"] = fmt(quantile(lateness, 0.99));
  config["generator_late_max_us"] =
      fmt(lateness.empty() ? 0.0 : *std::max_element(lateness.begin(), lateness.end()));
  std::printf("config %s\n", run_config_json(options, spec, config).c_str());
  return result;
}

}  // namespace verdictbench
