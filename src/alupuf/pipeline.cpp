#include "alupuf/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace pufatt::alupuf {

using support::BitVector;

std::array<std::uint64_t, 8> ChallengeExpander::expand_words(
    std::uint64_t x, std::size_t width) {
  if (width == 0 || width > 32) {
    throw std::invalid_argument("ChallengeExpander: width must be in [1, 32]");
  }
  const std::uint64_t mask =
      width == 32 ? ~0ULL : (std::uint64_t{1} << (2 * width)) - 1;
  std::array<std::uint64_t, 8> out{};
  support::SplitMix64 prg(x);
  for (auto& word : out) word = prg.next() & mask;
  return out;
}

std::vector<Challenge> ChallengeExpander::expand(std::uint64_t x,
                                                 std::size_t width) {
  std::vector<Challenge> out;
  out.reserve(ObfuscationNetwork::kResponsesPerOutput);
  for (const std::uint64_t word : expand_words(x, width)) {
    out.emplace_back(2 * width, word);
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
  if (config.width > 32) {
    throw std::invalid_argument("PufDevice: width must be <= 32");
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
  std::array<std::uint32_t, kPer> words{};
  PufOutput out;
  out.helpers.reserve(kPer);
  for (std::size_t r = 0; r < kPer; ++r) {
    out.helpers.push_back(helper_.generate(responses[r]));
    words[r] = static_cast<std::uint32_t>(responses[r].to_u64());
  }
  out.z = BitVector(output_bits(), obfuscation_.obfuscate_words(words));
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
      code_(dynamic_cast<const ecc::ReedMuller1*>(&code)),
      obfuscation_(width, ObfuscationNetwork::Pairing::kHardened) {
  if (code.n() != width) {
    throw std::invalid_argument(
        "PufEmulator: code length must equal the PUF response width");
  }
  if (code_ == nullptr || width > 32) {
    throw std::invalid_argument(
        "PufEmulator: the verdict path decodes RM(1,m) with n <= 32");
  }
  const auto& rows = code.syndrome_preimages();
  for (std::size_t j = 0; j < rows.size(); ++j) {
    preimage_rows_[j] = static_cast<std::uint32_t>(rows[j].to_u64());
  }
  helper_mask_ =
      static_cast<std::uint32_t>((std::uint64_t{1} << rows.size()) - 1);
}

std::uint32_t PufEmulator::reconstruct(
    const std::array<double, 32>& reference_llr, std::uint32_t helper_word,
    CallStats& stats) const {
  const std::size_t n = code_->n();
  // y0: any word whose syndrome is the helper data.
  std::uint32_t y0 = 0;
  for (std::uint32_t h = helper_word & helper_mask_; h != 0; h &= h - 1) {
    y0 ^= preimage_rows_[std::countr_zero(h)];
  }
  // Soft-decode reference XOR y0 (a known 1 flips the sign of the soft
  // value): the emulation's race margins tell the decoder which bits the
  // physical arbiters resolve unreliably.
  std::array<double, 32> f{};
  std::uint32_t reference = 0;
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = (y0 >> i) & 1u ? -reference_llr[i] : reference_llr[i];
    if (reference_llr[i] < 0.0) reference |= std::uint32_t{1} << i;
  }
  const std::uint32_t response = code_->decode_soft_word(f) ^ y0;
  // Distance budgets against the reference (sign of the margins): plain
  // Hamming plus the reliability-weighted likelihood-ratio statistic.
  for (std::uint32_t d = response ^ reference; d != 0; d &= d - 1) {
    ++stats.distance;
    stats.weighted_ps += std::abs(reference_llr[std::countr_zero(d)]);
  }
  return response;
}

PufEmulator::Emulation PufEmulator::emulate_raw(
    const std::array<std::uint64_t, 8>& challenges,
    const std::array<std::uint32_t, 8>& helper_words,
    const variation::Environment& env) const {
  AluPufEmulator::CallLlrs llr{};
  emulator_.eval_soft_call(challenges, llr, env);
  Emulation out;
  std::array<std::uint32_t, ObfuscationNetwork::kResponsesPerOutput>
      responses{};
  for (std::size_t r = 0; r < responses.size(); ++r) {
    responses[r] = reconstruct(llr[r], helper_words[r], out.stats);
  }
  if (out.stats.distance <= max_call_distance_ &&
      out.stats.weighted_ps <= max_weighted_distance_ps_) {
    out.z = obfuscation_.obfuscate_words(responses);
  }
  return out;
}

std::optional<BitVector> PufEmulator::emulate(
    std::uint64_t challenge, const std::vector<BitVector>& helpers,
    const variation::Environment& env) const {
  if (helpers.size() != ObfuscationNetwork::kResponsesPerOutput) {
    return std::nullopt;
  }
  std::array<std::uint32_t, ObfuscationNetwork::kResponsesPerOutput> words{};
  for (std::size_t r = 0; r < words.size(); ++r) {
    if (helpers[r].size() != helper_bits()) {
      throw std::invalid_argument("PufEmulator::emulate: bad helper size");
    }
    words[r] = static_cast<std::uint32_t>(helpers[r].to_u64());
  }
  const auto result = emulate_raw(
      ChallengeExpander::expand_words(challenge, emulator_.response_bits()),
      words, env);
  if (!result.z) return std::nullopt;
  return BitVector(output_bits(), *result.z);
}

}  // namespace pufatt::alupuf
