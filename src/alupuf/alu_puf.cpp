#include "alupuf/alu_puf.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "obs/trace.hpp"

namespace pufatt::alupuf {

namespace {

bool same_env(const variation::Environment& a, const variation::Environment& b) {
  return a.vdd_scale == b.vdd_scale && a.temperature_c == b.temperature_c;
}

std::vector<netlist::GateId> raced_gates(const netlist::AluPufCircuit& circuit) {
  std::vector<netlist::GateId> observed;
  observed.reserve(circuit.race0.size() + circuit.race1.size());
  observed.insert(observed.end(), circuit.race0.begin(), circuit.race0.end());
  observed.insert(observed.end(), circuit.race1.begin(), circuit.race1.end());
  return observed;
}

/// The eval_batch per-lane generator derivation (see alu_puf.hpp).
constexpr std::uint64_t kLaneGolden = 0x9E3779B97F4A7C15ULL;

support::Xoshiro256pp lane_rng(std::uint64_t batch_seed, std::size_t lane) {
  return support::Xoshiro256pp(
      support::SplitMix64::mix(batch_seed + kLaneGolden * (lane + 1)));
}

/// AluPufEmulator's per-call scratch, one per thread (the idiom of
/// eval_batch's fallback scratch): emulators keep none of their own, so a
/// prewarmed emulator is read-only.  The bit-slice state is re-zeroed and
/// its dispatch re-materialized when a thread switches emulators (the
/// engine-id stamp in BitSliceState), once per verdict on the service's
/// workers, not once per call.
struct EmulatorScratch {
  std::vector<timingsim::SignalState> states;
  timingsim::BitSliceState slice;
  std::vector<std::uint64_t> words;
};

EmulatorScratch& emulator_scratch() {
  thread_local EmulatorScratch scratch;
  return scratch;
}

}  // namespace

AluPufTopology::AluPufTopology(std::size_t width,
                               const netlist::AluPufLayout& layout)
    : circuit(netlist::build_alu_puf_circuit(width, layout)),
      sim(circuit.net),
      cone_sim(circuit.net, raced_gates(circuit)),
      lane_slice(cone_sim.compiled()) {}

std::shared_ptr<const AluPufTopology> AluPufTopology::shared(
    std::size_t width, const netlist::AluPufLayout& layout) {
  using Key = std::tuple<std::size_t, double, double, double>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const AluPufTopology>> table;
  const Key key{width, layout.alu_separation, layout.origin_x,
                layout.origin_y};
  std::lock_guard<std::mutex> lock(mutex);
  auto& entry = table[key];
  if (!entry) entry.reset(new AluPufTopology(width, layout));
  return entry;
}

AluPuf::AluPuf(const AluPufConfig& config, std::uint64_t chip_seed)
    : config_(config),
      topology_(AluPufTopology::shared(config.width, config.layout)),
      chip_(topology_->circuit.net, config.tech, config.quadtree, chip_seed),
      arbiter_(config.arbiter) {}

void AluPuf::check_challenge(const Challenge& challenge) const {
  if (challenge.size() != challenge_bits()) {
    throw std::invalid_argument("AluPuf: challenge must be 2*width bits");
  }
}

const timingsim::DelaySet& AluPuf::nominal_for(
    const variation::Environment& env) const {
  if (!has_cache_ || !same_env(env, cached_env_)) {
    chip_.nominal_delays(env, cached_nominal_);
    cached_env_ = env;
    has_cache_ = true;
  }
  return cached_nominal_;
}

RawResponse AluPuf::eval(const Challenge& challenge,
                         const variation::Environment& env,
                         support::Xoshiro256pp& rng,
                         const ClockConstraint* clock) const {
  check_challenge(challenge);
  const auto& nominal = nominal_for(env);
  chip_.sample_delays(nominal, config_.noise, rng, scratch_delays_);
  const AluPufTopology& topo = *topology_;
  topo.sim.run(challenge, scratch_delays_, scratch_states_);

  RawResponse response(config_.width);
  const double deadline =
      clock != nullptr ? clock->cycle_ps - clock->setup_ps : 0.0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    const double t0 = scratch_states_[topo.circuit.race0[i]].time_ps;
    const double t1 = scratch_states_[topo.circuit.race1[i]].time_ps;
    if (clock != nullptr && std::min(t0, t1) > deadline) {
      // Neither transition reached the arbiter before the capture edge:
      // the register samples a signal mid-flight and resolves metastably —
      // an unbiased coin, wrong half the time regardless of the expected
      // bit.  This is the setup-violation failure mode that defeats
      // overclocking attacks (paper Section 4.2).
      response.set(i, rng.bernoulli(0.5));
      continue;
    }
    response.set(i, arbiter_.sample(t1 - t0, rng));
  }
  return response;
}

std::vector<RawResponse> AluPuf::eval_batch(const Challenge* challenges,
                                            std::size_t count,
                                            const variation::Environment& env,
                                            support::Xoshiro256pp& rng,
                                            const ClockConstraint* clock,
                                            AluPufBatchScratch* scratch,
                                            timingsim::BatchEngine engine) const {
  // The batch_seed draw precedes engine resolution so responses are a
  // function of (rng state, challenges) alone — switching engines cannot
  // change them.
  const std::uint64_t batch_seed = rng.next();
  std::vector<RawResponse> responses;
  responses.reserve(count);
  if (count == 0) return responses;
  for (std::size_t x = 0; x < count; ++x) check_challenge(challenges[x]);

  using timingsim::BatchEngine;

  // Batch profiling under the global tracer: the delay-sampling loop and
  // the arbiter sweep are the two scalar phases flanking the vectorized
  // timing kernel (which records its own span), so the three children of
  // puf.eval_batch account for the whole evaluation.
  obs::Span eval_span;
  if (obs::global_trace_enabled()) {
    eval_span = obs::global_tracer().span("puf.eval_batch");
    eval_span.note("lanes", static_cast<double>(count));
    eval_span.note("engine", static_cast<double>(engine));
  }

  // A per-thread fallback rather than a per-instance member: a fleet of
  // devices would otherwise each pin its own ~100 KiB of batch buffers.
  thread_local AluPufBatchScratch thread_scratch;
  AluPufBatchScratch& ws = scratch != nullptr ? *scratch : thread_scratch;
  const auto& nominal = nominal_for(env);
  const AluPufTopology& topo = *topology_;
  const auto& circuit = topo.circuit;

  // Per-lane noisy delay realization: each lane's derived generator feeds
  // the batched ziggurat fill (one deviate per gate, gate order) and stays
  // live for that lane's arbiter draws below.
  ws.lane_rngs.resize(count, support::Xoshiro256pp(0));
  for (std::size_t x = 0; x < count; ++x) {
    ws.lane_rngs[x] = lane_rng(batch_seed, x);
  }
  obs::Span sample_span = eval_span.child("puf.sample_delays");
  chip_.sample_delays_batch(nominal, config_.noise, ws.lane_rngs.data(),
                            count, ws.delays);
  sample_span.end();

  // Run the selected timing kernel.  The scalar reference path keeps its
  // race times in a side buffer; the bit-sliced state is read in place by
  // the arbiter sweep below.
  std::vector<double> scalar_t0, scalar_t1;
  if (engine == BatchEngine::kScalar) {
    // One cone-restricted scalar run per lane, each with its own column of
    // the sampled delay matrix.  All-local state: the reference path must
    // stay safe under the same thread-sharing rules as the bit-sliced one.
    scalar_t0.resize(count * config_.width);
    scalar_t1.resize(count * config_.width);
    const std::size_t gates = circuit.net.num_gates();
    timingsim::DelaySet lane_delays;
    lane_delays.rise_ps.resize(gates);
    lane_delays.fall_ps.resize(gates);
    std::vector<timingsim::SignalState> states;
    for (std::size_t x = 0; x < count; ++x) {
      for (std::size_t g = 0; g < gates; ++g) {
        lane_delays.rise_ps[g] = ws.delays.rise_ps[g * count + x];
        lane_delays.fall_ps[g] = ws.delays.fall_ps[g * count + x];
      }
      topo.cone_sim.run(challenges[x], lane_delays, states);
      for (std::size_t i = 0; i < config_.width; ++i) {
        scalar_t0[x * config_.width + i] = states[circuit.race0[i]].time_ps;
        scalar_t1[x * config_.width + i] = states[circuit.race1[i]].time_ps;
      }
    }
  } else {
    timingsim::pack_input_words(challenges, count, challenge_bits(),
                                ws.input_words);
    topo.lane_slice.run(ws.input_words.data(), count, ws.delays, ws.slice);
  }

  obs::Span arbiter_span = eval_span.child("puf.arbiter");
  const double deadline =
      clock != nullptr ? clock->cycle_ps - clock->setup_ps : 0.0;
  for (std::size_t x = 0; x < count; ++x) {
    support::Xoshiro256pp& lrng = ws.lane_rngs[x];
    RawResponse response(config_.width);
    for (std::size_t i = 0; i < config_.width; ++i) {
      double t0, t1;
      if (engine == BatchEngine::kScalar) {
        t0 = scalar_t0[x * config_.width + i];
        t1 = scalar_t1[x * config_.width + i];
      } else {
        t0 = topo.lane_slice.time_ps(ws.slice, circuit.race0[i], x);
        t1 = topo.lane_slice.time_ps(ws.slice, circuit.race1[i], x);
      }
      if (clock != nullptr && std::min(t0, t1) > deadline) {
        response.set(i, lrng.bernoulli(0.5));
        continue;
      }
      response.set(i, arbiter_.sample(t1 - t0, lrng));
    }
    responses.push_back(std::move(response));
  }
  arbiter_span.end();
  return responses;
}

std::vector<double> AluPuf::race_deltas(const Challenge& challenge,
                                        const variation::Environment& env) const {
  check_challenge(challenge);
  const AluPufTopology& topo = *topology_;
  topo.sim.run(challenge, nominal_for(env), scratch_states_);
  std::vector<double> deltas(config_.width);
  for (std::size_t i = 0; i < config_.width; ++i) {
    deltas[i] = scratch_states_[topo.circuit.race1[i]].time_ps -
                scratch_states_[topo.circuit.race0[i]].time_ps;
  }
  return deltas;
}

double AluPuf::max_settle_ps(const variation::Environment& env) const {
  // All-propagate challenge: a = all ones, b = 1 -> full-length carry chain.
  Challenge challenge(challenge_bits());
  for (std::size_t i = 0; i < config_.width; ++i) challenge.set(i, true);
  challenge.set(config_.width, true);
  const AluPufTopology& topo = *topology_;
  topo.sim.run(challenge, nominal_for(env), scratch_states_);
  double worst = 0.0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    worst = std::max({worst, scratch_states_[topo.circuit.race0[i]].time_ps,
                      scratch_states_[topo.circuit.race1[i]].time_ps});
  }
  return worst;
}

void AluPuf::age_uniformly(double duty, double hours,
                           const variation::AgingParams& params) {
  chip_.age_uniformly(duty, hours, params);
  has_cache_ = false;  // delays changed
}

void AluPuf::apply_stage_stress(std::size_t bit, bool alu1, double duty,
                                double hours,
                                const variation::AgingParams& params) {
  if (bit >= config_.width) {
    throw std::invalid_argument("apply_stage_stress: bit out of range");
  }
  const auto& circuit = topology_->circuit;
  const auto& stage =
      alu1 ? circuit.stage_gates1[bit] : circuit.stage_gates0[bit];
  for (const auto gate : stage) {
    chip_.apply_stress(gate, duty, hours, params);
  }
  has_cache_ = false;
}

AluPufEmulator::AluPufEmulator(std::size_t width, variation::DelayTable model,
                               netlist::AluPufLayout layout)
    : width_(width),
      topology_(AluPufTopology::shared(width, layout)),
      model_(std::move(model)) {
  if (model_.intrinsic_ps.size() != topology_->circuit.net.num_gates()) {
    throw std::invalid_argument(
        "AluPufEmulator: delay table does not match the PUF circuit "
        "(wrong width or layout?)");
  }
}

const timingsim::DelaySet& AluPufEmulator::delays_for(
    const variation::Environment& env) const {
  if (!has_cache_ || cached_env_.vdd_scale != env.vdd_scale ||
      cached_env_.temperature_c != env.temperature_c) {
    cached_delays_ = variation::delays_from_table(model_, env);
    cached_slice_.reset();
    cached_env_ = env;
    has_cache_ = true;
  }
  return cached_delays_;
}

const timingsim::BitSliceEngine& AluPufEmulator::slice_for(
    const variation::Environment& env) const {
  const auto& delays = delays_for(env);
  // The time-rep classification is a one-off per operating point, paid by
  // the first batched run (or prewarm) — every later batch at that point,
  // the verifier's 8-lane PUF() calls included, reuses it.
  if (!cached_slice_) {
    cached_slice_ = std::make_unique<timingsim::BitSliceEngine>(
        topology_->cone_sim.compiled(), delays);
  }
  return *cached_slice_;
}

const std::vector<timingsim::SignalState>& AluPufEmulator::run_challenge(
    const Challenge& challenge, const variation::Environment& env) const {
  if (challenge.size() != 2 * width_) {
    throw std::invalid_argument("AluPufEmulator: challenge must be 2*width bits");
  }
  auto& states = emulator_scratch().states;
  topology_->sim.run(challenge, delays_for(env), states);
  return states;
}

void AluPufEmulator::check_batch(const Challenge* challenges,
                                 std::size_t count) const {
  for (std::size_t x = 0; x < count; ++x) {
    if (challenges[x].size() != 2 * width_) {
      throw std::invalid_argument(
          "AluPufEmulator: challenge must be 2*width bits");
    }
  }
}

const timingsim::BitSliceEngine& AluPufEmulator::run_slice(
    const Challenge* challenges, std::size_t count,
    const variation::Environment& env, timingsim::BitSliceState& state) const {
  check_batch(challenges, count);
  const auto& slice = slice_for(env);
  auto& words = emulator_scratch().words;
  timingsim::pack_input_words(challenges, count, 2 * width_, words);
  slice.run(words.data(), count, state);
  return slice;
}

void AluPufEmulator::eval_soft_call(
    const std::array<std::uint64_t, 8>& challenges, CallLlrs& llr,
    const variation::Environment& env) const {
  if (width_ > 32) {
    throw std::logic_error("AluPufEmulator::eval_soft_call: width > 32");
  }
  constexpr std::size_t kLanes = 8;
  const auto& slice = slice_for(env);
  std::uint64_t words[64] = {};
  timingsim::pack_input_words(challenges.data(), kLanes, 2 * width_, words);
  auto& state = emulator_scratch().slice;
  slice.run(words, kLanes, state);
  const auto& circuit = topology_->circuit;
  double t0[kLanes] = {}, t1[kLanes] = {};
  for (std::size_t i = 0; i < width_; ++i) {
    slice.lane_times(state, circuit.race0[i], t0);
    slice.lane_times(state, circuit.race1[i], t1);
    for (std::size_t x = 0; x < kLanes; ++x) llr[x][i] = -(t1[x] - t0[x]);
  }
}

std::vector<RawResponse> AluPufEmulator::eval_batch(
    const Challenge* challenges, std::size_t count,
    const variation::Environment& env, timingsim::BatchEngine engine) const {
  std::vector<RawResponse> responses;
  if (count == 0) return responses;
  using timingsim::BatchEngine;
  if (engine == BatchEngine::kScalar) {
    check_batch(challenges, count);
    responses.reserve(count);
    for (std::size_t x = 0; x < count; ++x) {
      responses.push_back(eval(challenges[x], env));
    }
    return responses;
  }
  auto& state = emulator_scratch().slice;
  const auto& slice = run_slice(challenges, count, env, state);
  // Word-parallel arbiter: decide every race 64 lanes at a time, then
  // transpose each lane block back into per-device response vectors.
  const auto& circuit = topology_->circuit;
  responses.assign(count, RawResponse(width_));
  const std::size_t nwords = state.nwords;
  std::vector<std::uint64_t> race(width_ * nwords);
  for (std::size_t i = 0; i < width_; ++i) {
    slice.race_words(state, circuit.race0[i], circuit.race1[i],
                     race.data() + i * nwords);
  }
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, count - w * 64);
    support::unpack_bit_columns(race.data() + w, width_, nwords,
                                responses.data() + w * 64, lanes);
  }
  return responses;
}

void AluPufEmulator::eval_soft_batch(const Challenge* challenges,
                                     std::size_t count,
                                     std::vector<double>& out,
                                     const variation::Environment& env,
                                     timingsim::BatchEngine engine) const {
  out.resize(count * width_);
  if (count == 0) return;
  using timingsim::BatchEngine;
  if (engine == BatchEngine::kScalar) {
    check_batch(challenges, count);
    for (std::size_t x = 0; x < count; ++x) {
      const auto llr = eval_soft(challenges[x], env);
      std::copy(llr.begin(), llr.end(), out.begin() + x * width_);
    }
    return;
  }
  auto& state = emulator_scratch().slice;
  const auto& slice = run_slice(challenges, count, env, state);
  const auto& circuit = topology_->circuit;
  for (std::size_t x = 0; x < count; ++x) {
    for (std::size_t i = 0; i < width_; ++i) {
      const double delta = slice.time_ps(state, circuit.race1[i], x) -
                           slice.time_ps(state, circuit.race0[i], x);
      out[x * width_ + i] = -delta;
    }
  }
}

RawResponse AluPufEmulator::eval(const Challenge& challenge,
                                 const variation::Environment& env) const {
  const auto& states = run_challenge(challenge, env);
  const auto& circuit = topology_->circuit;
  RawResponse response(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    const double delta = states[circuit.race1[i]].time_ps -
                         states[circuit.race0[i]].time_ps;
    response.set(i, timingsim::Arbiter::decide(delta));
  }
  return response;
}

std::vector<double> AluPufEmulator::eval_soft(
    const Challenge& challenge, const variation::Environment& env) const {
  const auto& states = run_challenge(challenge, env);
  const auto& circuit = topology_->circuit;
  std::vector<double> llr(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    const double delta = states[circuit.race1[i]].time_ps -
                         states[circuit.race0[i]].time_ps;
    // Bit is 1 when delta > 0, and the LLR convention is positive = bit 0.
    llr[i] = -delta;
  }
  return llr;
}

}  // namespace pufatt::alupuf
