// The complete PUF() pipeline of the attestation protocol:
//
//   64-bit protocol challenge x
//     -> ChallengeExpander -> 8 raw adder challenges
//     -> AluPuf::eval_batch (8 noisy races, one  -> 8 raw responses y'_r
//        8-lane bit-sliced pass)
//     -> SyndromeHelper (per response)           -> 8 helper words h_r
//     -> ObfuscationNetwork                      -> output z
//
// PufDevice is the prover side; PufEmulator is the verifier side, which
// reconstructs each exact y'_r from its emulated reference and h_r, then
// applies the identical obfuscation.  PUF() in the paper's protocol figure
// corresponds to PufDevice::query / PufEmulator::emulate.
//
// Every prover path — query, query_raw (the CPU's PUF port) and
// query_batch — evaluates its races through AluPuf::eval_batch and so
// follows its RNG contract: one rng.next() per batch, lane noise derived
// from it.  Scalar AluPuf::eval remains for CRP databases and as the
// statistical oracle the batched responses are tested against.
//
// The verdict path (PufEmulator::emulate_raw, behind core::emulator_query)
// runs on the protocol's fixed shapes — widths <= 32, so 8 uint64_t raw
// challenges, uint32_t helper words and responses, LLRs in
// std::array<double, 32> — with no BitVector and no heap buffers: one
// 8-lane shared-delay bit-slice run, helper preimages XORed from uint32_t
// rows, RM(1,m) soft decoding as an in-place FWHT on the stack, and the
// word-form obfuscation PufDevice also uses.  The BitVector pipeline
// (AluPufEmulator::eval_soft, SyndromeHelper::reproduce_soft,
// ObfuscationNetwork::obfuscate) is its exactness oracle: tests require
// the two to agree bit for bit (DESIGN.md §5b).  The emulator keeps no
// per-call state, so once prewarmed it is read-only across threads.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "alupuf/obfuscation.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/linear_code.hpp"
#include "ecc/reed_muller.hpp"

namespace pufatt::alupuf {

/// Deterministically expands a 64-bit protocol challenge into the 8 raw
/// adder challenges one obfuscated output consumes.  Both protocol sides
/// run this expansion, so only 64 bits travel in the protocol.
/// Raw challenge r is the low 2*width bits of the r-th SplitMix64 output
/// seeded with x; width must be in [1, 32] (std::invalid_argument).
class ChallengeExpander {
 public:
  /// The 8 raw challenges as words (the verifier's form).
  static std::array<std::uint64_t, 8> expand_words(std::uint64_t x,
                                                   std::size_t width);
  /// The same challenges as BitVectors (the prover's form).
  static std::vector<Challenge> expand(std::uint64_t x, std::size_t width);
};

/// Result of one PUF() query on the prover.
struct PufOutput {
  support::BitVector z;  ///< obfuscated response (width bits)
  /// Helper data per raw response; rides along with the attestation
  /// response so the verifier can reconstruct the prover's noisy readings.
  std::vector<support::BitVector> helpers;
};

/// Prover-side PUF(): physical ALU PUF + syndrome generator + obfuscation.
class PufDevice {
 public:
  /// `code.n()` must equal `config.width` (e.g. RM(1,5) for width 32), and
  /// the width must be <= 32 (the obfuscation runs on words).  `code` must
  /// outlive the device.
  PufDevice(const AluPufConfig& config, std::uint64_t chip_seed,
            const ecc::BinaryCode& code);

  /// One PUF() call: 8 physical evaluations at `env`.  Equal to
  /// `query_batch(&challenge, 1, env, rng, clock)`.
  PufOutput query(std::uint64_t challenge, const variation::Environment& env,
                  support::Xoshiro256pp& rng,
                  const ClockConstraint* clock = nullptr) const;

  /// Same, but with the 8 raw adder challenges supplied directly — the path
  /// the CPU's PUF port uses (each PUF-mode `add` carries one challenge in
  /// its register operands).  The 8 races run as one 8-lane
  /// AluPuf::eval_batch, consuming exactly one `rng.next()`; a bit whose
  /// race misses the `clock` capture deadline latches a coin flip.
  PufOutput query_raw(
      const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
          challenges,
      const variation::Environment& env, support::Xoshiro256pp& rng,
      const ClockConstraint* clock = nullptr) const;

  /// Batched PUF(): `count` protocol challenges in one pass over the
  /// bit-sliced timing engine (count*8 physical evaluations).  Follows the
  /// AluPuf::eval_batch RNG contract — one `rng.next()` consumed for the
  /// whole batch, every lane independent of batch split and thread count.
  /// `scratch` as in AluPuf::eval_batch (pass one per worker thread);
  /// `engine` selects the timing kernel (responses are engine-independent).
  std::vector<PufOutput> query_batch(
      const std::uint64_t* challenges, std::size_t count,
      const variation::Environment& env, support::Xoshiro256pp& rng,
      const ClockConstraint* clock = nullptr,
      AluPufBatchScratch* scratch = nullptr,
      timingsim::BatchEngine engine = timingsim::BatchEngine::kBitslice) const;

  /// See AluPuf::prewarm — required before multi-threaded use at `env`.
  void prewarm(const variation::Environment& env) const { puf_.prewarm(env); }

  /// Manufacturer enrollment: the delay table H handed to the verifier.
  variation::DelayTable export_model() const { return puf_.export_model(); }

  std::size_t output_bits() const { return obfuscation_.output_bits(); }
  std::size_t helper_bits() const { return helper_.helper_bits(); }
  const AluPuf& raw_puf() const { return puf_; }

 private:
  /// Helper data and obfuscation for one call's 8 raw responses (moved
  /// from `responses[0..8)`).
  PufOutput finish(RawResponse* responses) const;

  AluPuf puf_;
  ecc::SyndromeHelper helper_;
  ObfuscationNetwork obfuscation_;
};

/// Verifier-side PUF.Emulate(): delay-table emulation + helper-data
/// reconstruction + obfuscation.
///
/// Besides recomputing z, the emulator enforces a *reconstruction distance
/// budget*: the total Hamming distance between the reconstructed responses
/// and the emulated references over one PUF() call must stay within the
/// honest noise envelope.  This is the paper's "the attack will be detected
/// by ... wrong responses from the ALU PUF": a reverse fuzzy extractor
/// faithfully reconstructs whatever the prover measured, so corrupted
/// (overclocked) or foreign (impostor) responses must be rejected by
/// distance, not by decoding failure.
class PufEmulator {
 public:
  /// `code` must be RM(1,m) with n = `width` <= 32 (std::invalid_argument
  /// otherwise) and outlive the emulator.
  PufEmulator(std::size_t width, variation::DelayTable model,
              const ecc::BinaryCode& code,
              netlist::AluPufLayout layout = {});

  /// Maximum summed HD(reconstructed, reference) per PUF() call (8
  /// responses).  Default 48 sits well above the honest mean (~22 for the
  /// calibrated 32-bit PUF, max ~33 observed) while impostor transcripts
  /// (~64) land beyond it.
  void set_max_call_distance(std::size_t bits) { max_call_distance_ = bits; }
  std::size_t max_call_distance() const { return max_call_distance_; }

  /// Maximum *reliability-weighted* disagreement per PUF() call: the sum of
  /// the emulated race margins (ps) over all bits where the reconstruction
  /// disagrees with the reference.  An honest prover only disagrees on
  /// low-margin (metastable) bits, so this sum stays tiny; corrupted or
  /// foreign responses — and ML-decoding errors that snap onto a nearby
  /// codeword — disagree on high-margin bits and blow the budget.  This is
  /// a per-bit likelihood-ratio test and the protocol's main response
  /// authenticity check (see DESIGN.md).  Default 60 ps = roughly honest
  /// mean + 6 sigma for the calibrated model.
  void set_max_weighted_distance(double ps) { max_weighted_distance_ps_ = ps; }
  double max_weighted_distance() const { return max_weighted_distance_ps_; }

  /// Distance statistics of one PUF() call — verifiers aggregate these
  /// across a whole attestation transcript (the summed statistic separates
  /// marginal overclocking far better than any per-call threshold).
  struct CallStats {
    std::size_t distance = 0;
    double weighted_ps = 0.0;
  };

  /// One verdict-path PUF() call: z, or nullopt when a distance budget is
  /// exceeded, plus the statistics it was judged on.
  struct Emulation {
    std::optional<std::uint32_t> z;
    CallStats stats;
  };

  /// The verifier's PUF() call on raw challenges, matching
  /// PufDevice::query_raw: raw challenge r is the low 2*width bits of
  /// `challenges[r]`, helper r the low helper_bits() of `helper_words[r]`
  /// (higher bits are ignored, as helper_from_word drops them).  No
  /// BitVector and no state (scratch as in AluPufEmulator::eval_soft_call):
  /// safe to call from several threads at an env the emulator was
  /// prewarmed at.
  Emulation emulate_raw(const std::array<std::uint64_t, 8>& challenges,
                        const std::array<std::uint32_t, 8>& helper_words,
                        const variation::Environment& env =
                            variation::Environment::nominal()) const;

  /// Converting wrapper over emulate_raw for a 64-bit protocol challenge
  /// (ChallengeExpander) and helper BitVectors: nullopt on a wrong helper
  /// count or a failed call; std::invalid_argument on a helper that is not
  /// helper_bits() long.
  std::optional<support::BitVector> emulate(
      std::uint64_t challenge,
      const std::vector<support::BitVector>& helpers,
      const variation::Environment& env =
          variation::Environment::nominal()) const;

  /// One response of emulate_raw: reconstructs the prover's response from
  /// its reference LLRs and helper word, and adds its distance to `stats`
  /// (bits in ascending order, so eight calls in response order sum as
  /// emulate_raw does).  Public so tests can drive hand-built LLRs.
  std::uint32_t reconstruct(const std::array<double, 32>& reference_llr,
                            std::uint32_t helper_word, CallStats& stats) const;

  std::size_t output_bits() const { return obfuscation_.output_bits(); }
  std::size_t helper_bits() const { return code_->n() - code_->k(); }
  const AluPufEmulator& raw_emulator() const { return emulator_; }

 private:
  AluPufEmulator emulator_;
  const ecc::ReedMuller1* code_;
  /// preimage_rows_[j]: BinaryCode::syndrome_preimages()[j] as a word.
  std::array<std::uint32_t, 32> preimage_rows_{};
  std::uint32_t helper_mask_ = 0;
  ObfuscationNetwork obfuscation_;
  std::size_t max_call_distance_ = 48;
  double max_weighted_distance_ps_ = 60.0;
};

}  // namespace pufatt::alupuf
