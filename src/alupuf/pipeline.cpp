#include "alupuf/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pufatt::alupuf {

using support::BitVector;

std::vector<Challenge> ChallengeExpander::expand(std::uint64_t x,
                                                 std::size_t width) {
  std::vector<Challenge> out;
  out.reserve(ObfuscationNetwork::kResponsesPerOutput);
  support::SplitMix64 prg(x);
  for (std::size_t r = 0; r < ObfuscationNetwork::kResponsesPerOutput; ++r) {
    Challenge c(2 * width);
    for (std::size_t base = 0; base < 2 * width; base += 64) {
      const std::uint64_t word = prg.next();
      const std::size_t chunk = std::min<std::size_t>(64, 2 * width - base);
      for (std::size_t i = 0; i < chunk; ++i) {
        c.set(base + i, (word >> i) & 1ULL);
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

PufDevice::PufDevice(const AluPufConfig& config, std::uint64_t chip_seed,
                     const ecc::BinaryCode& code)
    : puf_(config, chip_seed),
      helper_(code),
      obfuscation_(config.width, ObfuscationNetwork::Pairing::kHardened) {
  if (code.n() != config.width) {
    throw std::invalid_argument(
        "PufDevice: code length must equal the PUF response width");
  }
}

PufOutput PufDevice::query(std::uint64_t challenge,
                           const variation::Environment& env,
                           support::Xoshiro256pp& rng,
                           const ClockConstraint* clock) const {
  const auto expanded =
      ChallengeExpander::expand(challenge, puf_.response_bits());
  std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput> challenges;
  std::copy(expanded.begin(), expanded.end(), challenges.begin());
  return query_raw(challenges, env, rng, clock);
}

PufOutput PufDevice::query_raw(
    const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
        challenges,
    const variation::Environment& env, support::Xoshiro256pp& rng,
    const ClockConstraint* clock) const {
  auto responses = puf_.eval_batch(challenges.data(), challenges.size(), env,
                                   rng, clock);
  return finish(responses.data());
}

PufOutput PufDevice::finish(RawResponse* responses) const {
  constexpr std::size_t kPer = ObfuscationNetwork::kResponsesPerOutput;
  std::array<BitVector, kPer> group;
  PufOutput out;
  out.helpers.reserve(kPer);
  for (std::size_t r = 0; r < kPer; ++r) {
    out.helpers.push_back(helper_.generate(responses[r]));
    group[r] = std::move(responses[r]);
  }
  out.z = obfuscation_.obfuscate(group);
  return out;
}

std::vector<PufOutput> PufDevice::query_batch(
    const std::uint64_t* challenges, std::size_t count,
    const variation::Environment& env, support::Xoshiro256pp& rng,
    const ClockConstraint* clock, AluPufBatchScratch* scratch,
    timingsim::BatchEngine engine) const {
  constexpr std::size_t kPer = ObfuscationNetwork::kResponsesPerOutput;
  std::vector<Challenge> raw;
  raw.reserve(count * kPer);
  for (std::size_t x = 0; x < count; ++x) {
    auto expanded =
        ChallengeExpander::expand(challenges[x], puf_.response_bits());
    for (auto& c : expanded) raw.push_back(std::move(c));
  }
  auto responses =
      puf_.eval_batch(raw.data(), raw.size(), env, rng, clock, scratch, engine);
  std::vector<PufOutput> outputs;
  outputs.reserve(count);
  for (std::size_t x = 0; x < count; ++x) {
    outputs.push_back(finish(responses.data() + x * kPer));
  }
  return outputs;
}

PufEmulator::PufEmulator(std::size_t width, variation::DelayTable model,
                         const ecc::BinaryCode& code,
                         netlist::AluPufLayout layout)
    : emulator_(width, std::move(model), layout),
      helper_(code),
      obfuscation_(width, ObfuscationNetwork::Pairing::kHardened) {
  if (code.n() != width) {
    throw std::invalid_argument(
        "PufEmulator: code length must equal the PUF response width");
  }
}

std::optional<BitVector> PufEmulator::emulate(
    std::uint64_t challenge, const std::vector<BitVector>& helpers,
    const variation::Environment& env) const {
  const auto expanded =
      ChallengeExpander::expand(challenge, emulator_.response_bits());
  std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput> challenges;
  std::copy(expanded.begin(), expanded.end(), challenges.begin());
  return emulate_raw(challenges, helpers, env);
}

std::optional<BitVector> PufEmulator::emulate_raw(
    const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
        challenges,
    const std::vector<BitVector>& helpers,
    const variation::Environment& env) const {
  if (helpers.size() != ObfuscationNetwork::kResponsesPerOutput) {
    return std::nullopt;
  }
  std::array<BitVector, ObfuscationNetwork::kResponsesPerOutput> responses;
  std::size_t call_distance = 0;
  double weighted_distance = 0.0;
  // All 8 soft emulations in one batched pass over the timing engine —
  // bit-identical to per-challenge eval_soft (the emulator is noise-free),
  // and the dominant cost of a verifier job.
  const std::size_t width = emulator_.response_bits();
  std::vector<double> soft;
  emulator_.eval_soft_batch(challenges.data(), challenges.size(), soft, env);
  std::vector<double> reference_llr(width);
  for (std::size_t r = 0; r < responses.size(); ++r) {
    // Soft-decision reconstruction: the emulation's race margins tell the
    // decoder which bits the physical arbiters resolve unreliably.
    std::copy(soft.begin() + r * width, soft.begin() + (r + 1) * width,
              reference_llr.begin());
    const auto reconstructed =
        helper_.reproduce_soft(reference_llr, helpers[r]);
    if (!reconstructed) return std::nullopt;
    // Distance budgets against the reference (sign of the margins): plain
    // Hamming plus the reliability-weighted likelihood-ratio statistic.
    for (std::size_t i = 0; i < reference_llr.size(); ++i) {
      const bool reference_bit = reference_llr[i] < 0.0;
      if (reconstructed->get(i) != reference_bit) {
        ++call_distance;
        weighted_distance += std::abs(reference_llr[i]);
      }
    }
    responses[r] = *reconstructed;
  }
  last_call_stats_ = CallStats{call_distance, weighted_distance};
  if (call_distance > max_call_distance_ ||
      weighted_distance > max_weighted_distance_ps_) {
    return std::nullopt;
  }
  return obfuscation_.obfuscate(responses);
}

}  // namespace pufatt::alupuf
