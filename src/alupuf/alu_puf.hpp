// The ALU PUF (paper Section 2): two structurally identical ripple-carry
// adder ALUs race the same challenge; per-bit arbiters decide which ALU's
// sum bit settled first.
//
// AluPuf is the physical device: process variation, per-evaluation jitter,
// arbiter metastability and (optionally) clock-induced setup violations —
// the mechanism behind the paper's overclocking-attack resilience.
// AluPufEmulator is the verifier's PUF.Emulate(): the same race computed
// deterministically from the enrollment delay table H.  Both hold only
// their per-device state (the chip or H and its delay caches); the
// circuit and its compiled timing kernels are the same for every chip of
// one shape and live in a shared AluPufTopology, and per-call scratch
// belongs to the calling thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/builder.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"
#include "timingsim/arbiter.hpp"
#include "timingsim/bitslice.hpp"
#include "timingsim/timing_sim.hpp"
#include "variation/chip.hpp"

namespace pufatt::alupuf {

/// A PUF challenge: the two add operands, `2*width` bits (a then b), as in
/// the paper ("the add instruction reads the PUF challenge (operands) from
/// the registers inside the CPU").
using Challenge = support::BitVector;

/// A raw (pre-correction, pre-obfuscation) PUF response: `width` bits, one
/// per raced sum bit.
using RawResponse = support::BitVector;

struct AluPufConfig {
  std::size_t width = 32;  ///< adder width = response bits
  variation::TechnologyParams tech;
  variation::QuadTreeConfig quadtree;
  /// Noise and arbiter constants below are calibrated so the simulated
  /// 32-bit PUF reproduces the paper's reported statistics (intra-chip HD
  /// ~11.3%, metastability-dominated — see EXPERIMENTS.md).
  variation::NoiseParams noise{.delay_jitter_ratio = 0.004};
  timingsim::ArbiterParams arbiter{.meta_tau_ps = 0.85};
  netlist::AluPufLayout layout;
};

/// Clock timing constraint for the response capture registers.  When the
/// race has not produced a decision by (cycle - setup), the register
/// latches garbage — the paper's T_ALU + T_set < T_cycle condition.
struct ClockConstraint {
  double cycle_ps = 0.0;   ///< clock period
  double setup_ps = 20.0;  ///< register setup time
};

/// Reusable scratch for AluPuf::eval_batch.  Callers that keep one per
/// worker slot may pass it explicitly; passing nullptr uses a thread_local
/// scratch of the calling thread, so no PUF instance carries one and
/// concurrent calls on distinct prewarmed PUFs never share buffers.
struct AluPufBatchScratch {
  timingsim::BatchDelays delays;
  std::vector<support::Xoshiro256pp> lane_rngs;
  timingsim::BitSliceState slice;
  std::vector<std::uint64_t> input_words;
};

/// The device-independent half of an ALU PUF: the dual-adder circuit and
/// the timing kernels compiled from it.  Every chip of one (width, layout)
/// has the same netlist, so one immutable instance serves every AluPuf and
/// AluPufEmulator of that shape.  Not copyable: the simulators and every
/// ChipInstance built on `circuit.net` point into it.
class AluPufTopology {
 public:
  AluPufTopology(const AluPufTopology&) = delete;
  AluPufTopology& operator=(const AluPufTopology&) = delete;

  /// The process-wide instance for (width, layout), built on first use and
  /// kept for the life of the process.  Thread-safe.
  static std::shared_ptr<const AluPufTopology> shared(
      std::size_t width, const netlist::AluPufLayout& layout);

  netlist::AluPufCircuit circuit;
  timingsim::TimingSimulator sim;        ///< full netlist
  timingsim::TimingSimulator cone_sim;   ///< arbiter-cone restricted
  timingsim::BitSliceEngine lane_slice;  ///< lane-delay mode, same cone

 private:
  AluPufTopology(std::size_t width, const netlist::AluPufLayout& layout);
};

class AluPuf {
 public:
  /// Manufactures one chip from `chip_seed` (every seed is a distinct die)
  /// on the shared topology of (config.width, config.layout).
  AluPuf(const AluPufConfig& config, std::uint64_t chip_seed);

  std::size_t response_bits() const { return config_.width; }
  std::size_t challenge_bits() const { return 2 * config_.width; }

  /// One physical evaluation: evaluation noise plus arbiter metastability.
  /// If `clock` is non-null and a bit's race is undecided by the capture
  /// deadline, that bit latches 0 (setup violation -> wrong response).
  RawResponse eval(const Challenge& challenge,
                   const variation::Environment& env,
                   support::Xoshiro256pp& rng,
                   const ClockConstraint* clock = nullptr) const;

  /// Batched physical evaluation over the lane-delay bit-sliced engine,
  /// restricted to the arbiter cones.  Statistically equivalent to `count`
  /// scalar `eval` calls, with a documented RNG contract instead of
  /// stream-for-stream equality: the batch consumes exactly one
  /// `rng.next()` (its batch_seed), and lane x then draws ALL of its
  /// randomness from the derived generator
  ///   Xoshiro256pp(SplitMix64::mix(batch_seed + kGolden * (x + 1)))
  /// (kGolden = 0x9E3779B97F4A7C15): first one noise deviate per gate in
  /// gate order via the fast ziggurat sampler (gaussian_fast; zero-delay
  /// gates included, see ChipInstance::sample_delays_batch), then the
  /// arbiter/metastability draws bit by bit.  Lane responses are NOT
  /// stream-identical to scalar `eval` (which spends the caller's
  /// generator through the Box-Muller sampler) but follow the identical
  /// distribution, and one batch is fully reproducible from (caller rng
  /// state, challenges).  Note lane seeds depend on the lane index, so
  /// splitting a workload into batches differently yields a different
  /// (equally distributed) noise realization; deterministic drivers must
  /// keep batch boundaries fixed (see support/parallel.hpp).
  ///
  /// `scratch` may be nullptr: the calling thread's own scratch is used
  /// (see AluPufBatchScratch).  The prover's PUF() call
  /// (PufDevice::query_raw) is one 8-lane batch.
  ///
  /// `engine` selects the timing kernel only.  The batch_seed draw, the
  /// delay realization and the arbiter sweep are engine-independent, and
  /// both engines compute the same settle-time doubles (the repo's
  /// exactness contract), so responses are byte-identical across engines.
  std::vector<RawResponse> eval_batch(
      const Challenge* challenges, std::size_t count,
      const variation::Environment& env, support::Xoshiro256pp& rng,
      const ClockConstraint* clock = nullptr,
      AluPufBatchScratch* scratch = nullptr,
      timingsim::BatchEngine engine =
          timingsim::BatchEngine::kBitslice) const;

  /// Warms the per-env nominal-delay cache so that subsequent const
  /// evaluations at `env` are read-only (required before sharing *this
  /// across threads — the cache itself is not synchronized).
  void prewarm(const variation::Environment& env) const { nominal_for(env); }

  /// Arrival-time difference (t_alu1 - t_alu0) per response bit, noise
  /// free, at `env`.  Exposed for analysis and calibration.
  std::vector<double> race_deltas(const Challenge& challenge,
                                  const variation::Environment& env) const;

  /// Worst-case settling time of any raced output at `env` (the T_ALU of
  /// the paper's overclocking condition), measured over the all-propagate
  /// challenge that maximizes the carry chain.
  double max_settle_ps(const variation::Environment& env) const;

  /// Manufacturer enrollment: exports the gate-level delay table H.
  variation::DelayTable export_model() const { return chip_.export_delay_table(); }

  /// Ambient aging of the whole die (NBTI drift in the field).
  void age_uniformly(double duty, double hours,
                     const variation::AgingParams& params);

  /// Directed stress of one full-adder stage of one ALU (the mechanism of
  /// aging-based response tuning, paper reference [13]): holding that
  /// stage's inputs under stress raises its gates' Vth, slowing it and
  /// widening the race margin of its (and downstream) bits.
  void apply_stage_stress(std::size_t bit, bool alu1, double duty,
                          double hours, const variation::AgingParams& params);

  const AluPufConfig& config() const { return config_; }
  const variation::ChipInstance& chip() const { return chip_; }
  const netlist::AluPufCircuit& circuit() const { return topology_->circuit; }
  const std::shared_ptr<const AluPufTopology>& topology() const {
    return topology_;
  }

 private:
  AluPufConfig config_;
  std::shared_ptr<const AluPufTopology> topology_;
  variation::ChipInstance chip_;  ///< built on topology_->circuit.net
  timingsim::Arbiter arbiter_;
  // Per-env delay cache: most experiments evaluate millions of challenges
  // at a fixed operating point.
  mutable variation::Environment cached_env_;
  mutable bool has_cache_ = false;
  mutable timingsim::DelaySet cached_nominal_;
  mutable timingsim::DelaySet scratch_delays_;
  mutable std::vector<timingsim::SignalState> scratch_states_;

  const timingsim::DelaySet& nominal_for(const variation::Environment& env) const;
  void check_challenge(const Challenge& challenge) const;
};

/// Verifier-side deterministic emulation from the enrollment model H.
///
/// Per-call scratch (scalar signal states, bit-slice state and input words)
/// is thread_local, so the only mutable members are the per-env delay cache
/// and the shared-delay engine built on it: after prewarm(env), evaluation
/// at `env` is read-only and one emulator may serve several threads.
class AluPufEmulator {
 public:
  /// One PUF() call's soft responses on the verdict path: `[x][i]` is
  /// eval_soft's bit i of raw challenge x (entries at i >= width unused).
  using CallLlrs = std::array<std::array<double, 32>, 8>;

  AluPufEmulator(std::size_t width, variation::DelayTable model,
                 netlist::AluPufLayout layout = {});

  std::size_t response_bits() const { return width_; }

  /// Noise-free expected response at `env` (default: nominal conditions —
  /// what the verifier assumes the prover runs at).
  RawResponse eval(const Challenge& challenge,
                   const variation::Environment& env =
                       variation::Environment::nominal()) const;

  /// Soft expected response: per-bit log-likelihood values where a positive
  /// entry means "bit is 0" and the magnitude is the race margin in ps.
  /// Bits the physical arbiter resolves near-randomly (tiny margin) come
  /// out near zero, which is exactly the reliability information the
  /// soft-decision helper-data reconstruction consumes.
  std::vector<double> eval_soft(const Challenge& challenge,
                                const variation::Environment& env =
                                    variation::Environment::nominal()) const;

  /// Batched deterministic emulation: bit-identical to `count` `eval`
  /// calls (the emulator is noise-free, so there is no RNG contract to
  /// negotiate — both engines compute the same doubles).  The emulator's
  /// delays are shared across lanes, so kBitslice here uses the
  /// shared-delay BitSliceEngine with its time-representation shortcuts.
  std::vector<RawResponse> eval_batch(
      const Challenge* challenges, std::size_t count,
      const variation::Environment& env = variation::Environment::nominal(),
      timingsim::BatchEngine engine =
          timingsim::BatchEngine::kBitslice) const;

  /// Batched soft responses: `out` is resized to count*width, challenge x's
  /// LLRs at `out[x*width .. (x+1)*width)`.  Bit-identical to eval_soft.
  void eval_soft_batch(
      const Challenge* challenges, std::size_t count, std::vector<double>& out,
      const variation::Environment& env = variation::Environment::nominal(),
      timingsim::BatchEngine engine =
          timingsim::BatchEngine::kBitslice) const;

  /// The verifier's fixed-width soft emulation of one PUF() call: raw
  /// challenge x is the low 2*width bits of `challenges[x]` (operand a in
  /// the low half, as challenge_from_u64 packs it), and `llr[x]` receives
  /// eval_soft's values for it.  One 8-lane run of the shared-delay
  /// bit-sliced kernel, bit-identical to eval_soft; no BitVector, and no
  /// heap allocation while the calling thread stays on one emulator (a
  /// switch rebuilds the thread's bit-slice dispatch).  Requires
  /// width <= 32 (std::logic_error otherwise).
  void eval_soft_call(const std::array<std::uint64_t, 8>& challenges,
                      CallLlrs& llr,
                      const variation::Environment& env =
                          variation::Environment::nominal()) const;

  /// Warms the per-env delay cache and the shared-delay bit-sliced engine
  /// (see AluPuf::prewarm).
  void prewarm(const variation::Environment& env =
                   variation::Environment::nominal()) const {
    slice_for(env);
  }

  const std::shared_ptr<const AluPufTopology>& topology() const {
    return topology_;
  }

 private:
  /// Scalar run of one challenge into the calling thread's signal states.
  const std::vector<timingsim::SignalState>& run_challenge(
      const Challenge& challenge, const variation::Environment& env) const;
  const timingsim::DelaySet& delays_for(const variation::Environment& env) const;
  /// delays_for plus the shared-delay bit-sliced engine over those delays,
  /// built on first use per operating point.
  const timingsim::BitSliceEngine& slice_for(
      const variation::Environment& env) const;
  /// Runs the shared-delay bit-sliced kernel into `state` and returns its
  /// engine.  The kScalar path never reaches here — callers loop the
  /// scalar evaluation themselves.
  const timingsim::BitSliceEngine& run_slice(
      const Challenge* challenges, std::size_t count,
      const variation::Environment& env,
      timingsim::BitSliceState& state) const;
  void check_batch(const Challenge* challenges, std::size_t count) const;

  std::size_t width_;
  std::shared_ptr<const AluPufTopology> topology_;
  variation::DelayTable model_;
  mutable variation::Environment cached_env_;
  mutable bool has_cache_ = false;
  mutable timingsim::DelaySet cached_delays_;
  /// Shared-delay bit-sliced engine over the cached DelaySet: dropped with
  /// the cache, built by the first batched run at that operating point
  /// (prewarm builds it too, keeping post-prewarm evaluation read-only for
  /// thread sharing).
  mutable std::unique_ptr<timingsim::BitSliceEngine> cached_slice_;
};

}  // namespace pufatt::alupuf
