// Baseline delay-PUF variants: plain Arbiter, k-XOR Arbiter, and the
// MUX/arbiter additive-delay baseline, plus the shared harvesting helpers.
#include <algorithm>
#include <stdexcept>

#include "adversary/variant.hpp"
#include "alupuf/arbiter_puf.hpp"
#include "support/parallel.hpp"

namespace pufatt::adversary {

using support::BitVector;
using support::Xoshiro256pp;

void PufVariant::query_batch(const BitVector* challenges, std::size_t count,
                             std::uint8_t* out, Xoshiro256pp& rng) const {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = query(challenges[i], rng) ? 1 : 0;
  }
}

std::vector<Example> harvest_examples(const PufVariant& variant,
                                      std::size_t count, Xoshiro256pp& rng) {
  std::vector<BitVector> challenges;
  challenges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    challenges.push_back(BitVector::random(variant.challenge_bits(), rng));
  }
  std::vector<std::uint8_t> labels(count);
  variant.query_batch(challenges.data(), count, labels.data(), rng);
  std::vector<Example> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Example{variant.features(challenges[i]), labels[i] != 0});
  }
  return out;
}

std::vector<Example> harvest_examples_parallel(
    const PufVariant& variant, std::size_t count,
    const ParallelCrpConfig& config) {
  std::vector<Example> out(count);
  support::parallel_blocks(
      count, config.block, config.threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end, std::size_t) {
        auto rng = support::shard_rng(config.seed, shard);
        auto examples = harvest_examples(variant, end - begin, rng);
        std::move(examples.begin(), examples.end(), out.begin() + begin);
      });
  return out;
}

std::vector<Example> QueryOracle::collect(std::size_t n, Xoshiro256pp& rng) {
  const std::size_t take = std::min(n, remaining());
  used_ += take;
  return harvest_examples(*variant_, take, rng);
}

namespace {

class ArbiterVariant final : public PufVariant {
 public:
  ArbiterVariant(const ArbiterVariantParams& params, std::uint64_t chip_seed)
      : puf_({.stages = params.stages, .noise_sigma = params.noise_sigma},
             chip_seed) {}

  std::string name() const override { return "arbiter"; }
  std::size_t challenge_bits() const override { return puf_.challenge_bits(); }

  std::vector<double> features(const BitVector& challenge) const override {
    return alupuf::ArbiterPuf::features(challenge);
  }

  bool query(const BitVector& challenge, Xoshiro256pp& rng) const override {
    return puf_.eval(challenge, rng);
  }

 private:
  alupuf::ArbiterPuf puf_;
};

class XorArbiterVariant final : public PufVariant {
 public:
  XorArbiterVariant(std::size_t k, const ArbiterVariantParams& params,
                    std::uint64_t chip_seed)
      : k_(k),
        puf_(k, {.stages = params.stages, .noise_sigma = params.noise_sigma},
             chip_seed) {}

  std::string name() const override {
    return "xor-arbiter-k" + std::to_string(k_);
  }
  std::size_t challenge_bits() const override { return puf_.challenge_bits(); }

  std::vector<double> features(const BitVector& challenge) const override {
    return alupuf::ArbiterPuf::features(challenge);
  }

  bool query(const BitVector& challenge, Xoshiro256pp& rng) const override {
    return puf_.eval(challenge, rng);
  }

 private:
  std::size_t k_;
  alupuf::XorArbiterPuf puf_;
};

/// MUX/arbiter PUF in the direct additive delay domain: stage i contributes
/// one of four independently manufactured segment delays to each path, and
/// a challenge bit of 1 crosses the paths.  Functionally the same model
/// class as ArbiterPuf, but parameterized by raw segment delays instead of
/// parity-domain weights — the representation CMA-ES searches over.
class MuxArbiterVariant final : public PufVariant {
 public:
  MuxArbiterVariant(const ArbiterVariantParams& params, std::uint64_t chip_seed)
      : noise_sigma_(params.noise_sigma) {
    Xoshiro256pp fab(support::SplitMix64::mix(chip_seed ^ 0x3A8FD2C917E64B05ULL));
    const std::size_t n = params.stages;
    straight_top_.resize(n);
    straight_bot_.resize(n);
    crossed_top_.resize(n);
    crossed_bot_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Unit nominal segment delay with full-strength mismatch; only delay
      // *differences* matter for the race.
      straight_top_[i] = fab.gaussian(1.0, 1.0);
      straight_bot_[i] = fab.gaussian(1.0, 1.0);
      crossed_top_[i] = fab.gaussian(1.0, 1.0);
      crossed_bot_[i] = fab.gaussian(1.0, 1.0);
    }
  }

  std::string name() const override { return "mux-arbiter"; }
  std::size_t challenge_bits() const override { return straight_top_.size(); }

  std::vector<double> features(const BitVector& challenge) const override {
    return alupuf::ArbiterPuf::features(challenge);
  }

  bool query(const BitVector& challenge, Xoshiro256pp& rng) const override {
    if (challenge.size() != challenge_bits()) {
      throw std::invalid_argument("MuxArbiterVariant: challenge size");
    }
    double top = 0.0, bot = 0.0;
    for (std::size_t i = 0; i < challenge.size(); ++i) {
      if (challenge.get(i)) {
        const double new_top = bot + crossed_top_[i];
        bot = top + crossed_bot_[i];
        top = new_top;
      } else {
        top += straight_top_[i];
        bot += straight_bot_[i];
      }
    }
    return top - bot + noise_sigma_ * rng.gaussian() > 0.0;
  }

 private:
  double noise_sigma_;
  std::vector<double> straight_top_, straight_bot_;
  std::vector<double> crossed_top_, crossed_bot_;
};

}  // namespace

std::unique_ptr<PufVariant> make_arbiter_variant(
    const ArbiterVariantParams& params, std::uint64_t chip_seed) {
  return std::make_unique<ArbiterVariant>(params, chip_seed);
}

std::unique_ptr<PufVariant> make_xor_arbiter_variant(
    std::size_t k, const ArbiterVariantParams& params,
    std::uint64_t chip_seed) {
  return std::make_unique<XorArbiterVariant>(k, params, chip_seed);
}

std::unique_ptr<PufVariant> make_mux_arbiter_variant(
    const ArbiterVariantParams& params, std::uint64_t chip_seed) {
  return std::make_unique<MuxArbiterVariant>(params, chip_seed);
}

}  // namespace pufatt::adversary
