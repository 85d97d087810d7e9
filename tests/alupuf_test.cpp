#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "alupuf/alu_puf.hpp"
#include "alupuf/arbiter_puf.hpp"
#include "alupuf/obfuscation.hpp"
#include "alupuf/pipeline.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/reed_muller.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/stats.hpp"

namespace pufatt::alupuf {
namespace {

using support::BitVector;
using support::Xoshiro256pp;
using variation::Environment;

AluPufConfig small_config(std::size_t width = 16) {
  AluPufConfig config;
  config.width = width;
  return config;
}

Challenge random_challenge(std::size_t width, Xoshiro256pp& rng) {
  return BitVector::random(2 * width, rng);
}

// ------------------------------------------------------------------ AluPuf

TEST(AluPuf, ResponseShape) {
  const AluPuf puf(small_config(), 1);
  EXPECT_EQ(puf.response_bits(), 16u);
  EXPECT_EQ(puf.challenge_bits(), 32u);
  Xoshiro256pp rng(2);
  const auto r = puf.eval(random_challenge(16, rng), Environment::nominal(), rng);
  EXPECT_EQ(r.size(), 16u);
}

TEST(AluPuf, RejectsWrongChallengeSize) {
  const AluPuf puf(small_config(), 1);
  Xoshiro256pp rng(3);
  EXPECT_THROW(puf.eval(BitVector(31), Environment::nominal(), rng),
               std::invalid_argument);
}

TEST(AluPuf, MostlyStableAcrossRepeatedEvaluations) {
  // Intra-chip HD must be small but non-zero (noise + metastability).
  const AluPuf puf(small_config(32), 7);
  Xoshiro256pp rng(4);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = random_challenge(32, rng);
    const auto r1 = puf.eval(c, env, rng);
    const auto r2 = puf.eval(c, env, rng);
    hd.add(static_cast<double>(r1.hamming_distance(r2)));
  }
  EXPECT_GT(hd.mean(), 0.0);
  EXPECT_LT(hd.mean(), 8.0);  // well under 25% of 32 bits
}

TEST(AluPuf, DifferentChipsDisagree) {
  const auto config = small_config(32);
  const AluPuf a(config, 100), b(config, 200);
  Xoshiro256pp rng(5);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = random_challenge(32, rng);
    hd.add(static_cast<double>(
        a.eval(c, env, rng).hamming_distance(b.eval(c, env, rng))));
  }
  // Inter-chip HD should be far above intra-chip (>= ~25% of 32 bits).
  EXPECT_GT(hd.mean(), 8.0);
}

TEST(AluPuf, ChallengeDependentResponses) {
  const AluPuf puf(small_config(32), 9);
  Xoshiro256pp rng(6);
  const auto env = Environment::nominal();
  int diff = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto c1 = random_challenge(32, rng);
    const auto c2 = random_challenge(32, rng);
    if (puf.eval(c1, env, rng) != puf.eval(c2, env, rng)) ++diff;
  }
  EXPECT_GT(diff, 40);
}

TEST(AluPuf, RaceDeltasNonZeroAndChipSpecific) {
  const auto config = small_config(16);
  const AluPuf a(config, 1), b(config, 2);
  Xoshiro256pp rng(7);
  const auto c = random_challenge(16, rng);
  const auto da = a.race_deltas(c, Environment::nominal());
  const auto db = b.race_deltas(c, Environment::nominal());
  ASSERT_EQ(da.size(), 16u);
  int differing_signs = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_NE(da[i], 0.0);
    if ((da[i] > 0) != (db[i] > 0)) ++differing_signs;
  }
  EXPECT_GT(differing_signs, 0);
}

TEST(AluPuf, MaxSettleTimeScalesWithWidth) {
  const AluPuf narrow(small_config(8), 3);
  const AluPuf wide(small_config(32), 3);
  const auto env = Environment::nominal();
  EXPECT_GT(wide.max_settle_ps(env), narrow.max_settle_ps(env) * 2.0);
}

TEST(AluPuf, OverclockingBreaksResponses) {
  // Against the enrollment reference: a generous clock leaves only the
  // usual noise, while a clock far below the carry-chain latency latches
  // garbage on most bits — the paper's setup-violation defence.
  const AluPuf puf(small_config(32), 11);
  const AluPufEmulator emu(32, puf.export_model());
  Xoshiro256pp rng(8);
  const auto env = Environment::nominal();
  const double t_alu = puf.max_settle_ps(env);

  const ClockConstraint safe{t_alu * 1.5 + 100.0, 20.0};
  const ClockConstraint violated{t_alu * 0.05, 20.0};

  int safe_errors = 0;
  int violated_errors = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto c = random_challenge(32, rng);
    const auto reference = emu.eval(c);
    safe_errors += static_cast<int>(
        puf.eval(c, env, rng, &safe).hamming_distance(reference));
    violated_errors += static_cast<int>(
        puf.eval(c, env, rng, &violated).hamming_distance(reference));
  }
  EXPECT_LT(safe_errors, violated_errors / 3);
  EXPECT_GT(violated_errors, 300);  // ~half the bits wrong on average
}

TEST(AluPuf, EnvironmentCornersFlipSomeBitsDeterministically) {
  // Voltage/temperature corners reorder a few races (wire-RC vs transistor
  // scaling, per-gate Vth tempco) — deterministic, noise-free flips on top
  // of the metastability noise the paper's Figure 4 reports.
  const AluPuf puf(small_config(32), 13);
  const AluPufEmulator emu(32, puf.export_model());
  Xoshiro256pp rng(9);
  support::OnlineStats volt_flips, temp_flips;
  const Environment low_v{0.9, 25.0};
  const Environment hot{1.0, 120.0};
  for (int trial = 0; trial < 150; ++trial) {
    const auto c = random_challenge(32, rng);
    const auto ref = emu.eval(c);
    EXPECT_EQ(emu.eval(c), ref);  // same env: fully deterministic
    volt_flips.add(static_cast<double>(emu.eval(c, low_v).hamming_distance(ref)));
    temp_flips.add(static_cast<double>(emu.eval(c, hot).hamming_distance(ref)));
  }
  EXPECT_GT(volt_flips.mean(), 0.3);
  EXPECT_GT(temp_flips.mean(), 0.3);
  EXPECT_LT(volt_flips.mean(), 6.0);  // corners disturb, not destroy
  EXPECT_LT(temp_flips.mean(), 6.0);
}

// ---------------------------------------------------------------- Emulator

TEST(AluPufEmulator, MatchesChipNominalBehaviour) {
  // The emulator from the delay table must agree with the physical chip up
  // to noise: HD(emulated, measured) ~ intra-chip HD, far below 50%.
  const auto config = small_config(32);
  const AluPuf puf(config, 21);
  const AluPufEmulator emu(32, puf.export_model());
  Xoshiro256pp rng(10);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 150; ++trial) {
    const auto c = random_challenge(32, rng);
    hd.add(static_cast<double>(
        emu.eval(c).hamming_distance(puf.eval(c, env, rng))));
  }
  EXPECT_LT(hd.mean(), 6.0);
}

TEST(AluPufEmulator, DeterministicForSameChallenge) {
  const AluPuf puf(small_config(16), 22);
  const AluPufEmulator emu(16, puf.export_model());
  Xoshiro256pp rng(11);
  const auto c = random_challenge(16, rng);
  EXPECT_EQ(emu.eval(c), emu.eval(c));
}

TEST(AluPufEmulator, WrongChipModelDisagrees) {
  const auto config = small_config(32);
  const AluPuf victim(config, 30);
  const AluPuf other(config, 31);
  const AluPufEmulator wrong_model(32, other.export_model());
  Xoshiro256pp rng(12);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 100; ++trial) {
    const auto c = random_challenge(32, rng);
    hd.add(static_cast<double>(
        wrong_model.eval(c).hamming_distance(victim.eval(c, env, rng))));
  }
  EXPECT_GT(hd.mean(), 8.0);  // emulating the wrong chip does not help
}

TEST(AluPufEmulator, RejectsMismatchedModel) {
  const AluPuf puf(small_config(16), 23);
  EXPECT_THROW(AluPufEmulator(32, puf.export_model()), std::invalid_argument);
}

// ---------------------------------------------------------------- Topology

TEST(AluPufTopology, OneSharedInstancePerShape) {
  const AluPuf puf(small_config(16), 31);
  const AluPufEmulator a(16, puf.export_model());
  const AluPufEmulator b(16, AluPuf(small_config(16), 32).export_model());
  EXPECT_EQ(a.topology(), b.topology());
  EXPECT_EQ(a.topology(), puf.topology());
  EXPECT_EQ(&puf.circuit(), &a.topology()->circuit);
  EXPECT_EQ(&puf.chip().net(), &puf.circuit().net);

  // Another layout (or width) is another netlist: its own topology.
  netlist::AluPufLayout wide;
  wide.alu_separation = 4.0;
  AluPufConfig config = small_config(16);
  config.layout = wide;
  const AluPuf other(config, 31);
  const AluPufEmulator c(16, other.export_model(), wide);
  EXPECT_NE(c.topology(), a.topology());
  EXPECT_EQ(c.topology(), other.topology());
  EXPECT_NE(AluPuf(small_config(8), 31).topology(), puf.topology());
}

TEST(AluPufTopology, CompilesOncePerShapeWithTracingOff) {
  ASSERT_FALSE(obs::global_trace_enabled());
  const auto& compiles = obs::global_registry().counter("sim.compiles");
  // A shape no other test builds, so its topology is new to this process.
  AluPufConfig config = small_config(12);
  config.layout.origin_x = 3.75;
  const auto before = compiles.value();
  const AluPuf puf(config, 41);
  // Full netlist + arbiter cone; the lane-delay bit-sliced engine reuses
  // the cone's schedule.
  EXPECT_EQ(compiles.value() - before, 2u);

  const auto model = puf.export_model();
  const AluPuf again(config, 42);
  const AluPufEmulator first(12, model, config.layout);
  const AluPufEmulator second(12, model, config.layout);
  Xoshiro256pp rng(43);
  const auto challenge = random_challenge(12, rng);
  (void)first.eval(challenge);
  (void)second.eval_soft(challenge);
  EXPECT_EQ(compiles.value() - before, 2u);
}

TEST(AluPufTopology, EmulatedAndSoftResponsesArePinned) {
  // Digest of hard and soft emulation on every engine plus noisy device
  // evaluations.  A different digest means emulation changed, and with it
  // every verdict and CRP digest.
  const AluPuf puf(small_config(16), 0x51);
  const AluPufEmulator emulator(16, puf.export_model());
  Xoshiro256pp rng(0x52);
  std::vector<Challenge> challenges;
  for (int x = 0; x < 70; ++x) challenges.push_back(random_challenge(16, rng));

  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto mix = [&digest](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest = (digest ^ ((word >> (8 * b)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  const auto mix_bits = [&mix](const RawResponse& r) {
    for (std::size_t i = 0; i < r.size(); ++i) mix(r.get(i) ? 1 : 0);
  };
  const auto mix_doubles = [&mix](const std::vector<double>& values) {
    for (const double v : values) {
      std::uint64_t word;
      std::memcpy(&word, &v, sizeof word);
      mix(word);
    }
  };
  for (const auto& c : challenges) {
    mix_bits(emulator.eval(c));
    mix_doubles(emulator.eval_soft(c));
  }
  for (const auto engine :
       {timingsim::BatchEngine::kScalar, timingsim::BatchEngine::kBitslice}) {
    for (const auto& r :
         emulator.eval_batch(challenges.data(), challenges.size(),
                             Environment::nominal(), engine)) {
      mix_bits(r);
    }
    std::vector<double> soft;
    emulator.eval_soft_batch(challenges.data(), 8, soft,
                             Environment::nominal(), engine);
    mix_doubles(soft);
  }
  Xoshiro256pp noise(0x53);
  for (int x = 0; x < 8; ++x) {
    mix_bits(puf.eval(challenges[x], Environment::nominal(), noise));
  }
  for (const auto& r : puf.eval_batch(challenges.data(), challenges.size(),
                                      Environment::nominal(), noise)) {
    mix_bits(r);
  }
  mix_doubles(puf.race_deltas(challenges[0], Environment::nominal()));
  EXPECT_EQ(digest, 0xBFCB3CE53CF3D57CULL);
}

TEST(PufDevice, CopyOutlivesItsSource) {
  // A copied device must not reach into its source: the copy's chip and
  // simulators read the shared topology, so querying it after the source
  // is gone is clean (and ASan-checked in the sanitizer tree).
  const ecc::ReedMuller1 code(4);
  auto source = std::make_unique<PufDevice>(small_config(16), 0x61, code);
  const auto env = Environment::nominal();
  Xoshiro256pp expect_rng(0x62);
  const auto expected = source->query(0x63, env, expect_rng);
  // 8 protocol challenges = 64 raw evaluations: the bit-sliced engine.
  const std::uint64_t batch[] = {0x64, 0x65, 0x66, 0x67,
                                 0x68, 0x69, 0x6A, 0x6B};
  const auto expected_batch = source->query_batch(batch, 8, env, expect_rng);
  const auto expected_deltas =
      source->raw_puf().race_deltas(Challenge(32), env);

  const PufDevice copy = *source;
  source.reset();

  Xoshiro256pp rng(0x62);
  const auto got = copy.query(0x63, env, rng);
  EXPECT_EQ(got.z, expected.z);
  EXPECT_EQ(got.helpers, expected.helpers);
  const auto got_batch = copy.query_batch(batch, 8, env, rng);
  ASSERT_EQ(got_batch.size(), 8u);
  for (std::size_t x = 0; x < 8; ++x) {
    EXPECT_EQ(got_batch[x].z, expected_batch[x].z);
    EXPECT_EQ(got_batch[x].helpers, expected_batch[x].helpers);
  }
  EXPECT_EQ(copy.raw_puf().race_deltas(Challenge(32), env), expected_deltas);
}

// ------------------------------------------------------------- Obfuscation

TEST(Obfuscation, RejectsOddWidth) {
  EXPECT_THROW(ObfuscationNetwork(7), std::invalid_argument);
  EXPECT_THROW(ObfuscationNetwork(0), std::invalid_argument);
}

TEST(Obfuscation, FoldXorsHalves) {
  const ObfuscationNetwork net(8);
  const auto r = BitVector::from_string("10110100");  // high nibble 1011
  const auto f = net.fold(r);
  ASSERT_EQ(f.size(), 4u);
  // f[i] = r[i] ^ r[i+4]
  EXPECT_EQ(f.get(0), r.get(0) != r.get(4));
  EXPECT_EQ(f.get(3), r.get(3) != r.get(7));
}

TEST(Obfuscation, MatchesPaperFormula) {
  const std::size_t two_n = 16;
  const ObfuscationNetwork net(two_n);
  Xoshiro256pp rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    std::array<BitVector, 8> y;
    for (auto& r : y) r = BitVector::random(two_n, rng);
    const auto z = net.obfuscate(y);
    ASSERT_EQ(z.size(), two_n);
    const std::size_t n = two_n / 2;
    for (std::size_t i = 0; i < two_n; ++i) {
      bool expect = false;
      for (std::size_t j = 0; j < 4; ++j) {
        const auto& resp = i < n ? y[2 * j] : y[2 * j + 1];
        const std::size_t idx = i < n ? i : i - n;
        expect ^= resp.get(idx) != resp.get(idx + n);
      }
      EXPECT_EQ(z.get(i), expect);
    }
  }
}

TEST(Obfuscation, LinearInEachInput) {
  // XOR network => flipping one input bit flips exactly one output bit.
  const ObfuscationNetwork net(16);
  Xoshiro256pp rng(14);
  std::array<BitVector, 8> y;
  for (auto& r : y) r = BitVector::random(16, rng);
  const auto z0 = net.obfuscate(y);
  y[3].flip(5);
  const auto z1 = net.obfuscate(y);
  EXPECT_EQ(z0.hamming_distance(z1), 1u);
}

TEST(Obfuscation, ImprovesUniformity) {
  // Biased raw responses (70% ones) become nearly unbiased after the
  // two-phase XOR — the mechanism pushing inter-chip HD toward 50%.
  const ObfuscationNetwork net(32);
  Xoshiro256pp rng(15);
  std::size_t ones = 0;
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    std::array<BitVector, 8> y;
    for (auto& r : y) {
      r = BitVector(32);
      for (std::size_t i = 0; i < 32; ++i) r.set(i, rng.bernoulli(0.7));
    }
    ones += net.obfuscate(y).popcount();
  }
  const double density = static_cast<double>(ones) / (32.0 * trials);
  EXPECT_NEAR(density, 0.5, 0.02);
}

// ---------------------------------------------------------------- Pipeline

TEST(ChallengeExpander, DeterministicAndDistinct) {
  const auto a = ChallengeExpander::expand(42, 32);
  const auto b = ChallengeExpander::expand(42, 32);
  const auto c = ChallengeExpander::expand(43, 32);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[7], b[7]);
  EXPECT_NE(a[0], c[0]);
  EXPECT_NE(a[0], a[1]);
  EXPECT_EQ(a[0].size(), 64u);
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : code_(5),
        device_(small_config(32), 77, code_),
        emulator_(32, device_.export_model(), code_) {}

  ecc::ReedMuller1 code_;
  PufDevice device_;
  PufEmulator emulator_;
};

TEST_F(PipelineFixture, DeviceOutputShape) {
  Xoshiro256pp rng(16);
  const auto out = device_.query(123, Environment::nominal(), rng);
  EXPECT_EQ(out.z.size(), 32u);
  ASSERT_EQ(out.helpers.size(), 8u);
  for (const auto& h : out.helpers) EXPECT_EQ(h.size(), 26u);
}

TEST_F(PipelineFixture, VerifierReproducesDeviceOutput) {
  // The central correctness property of the whole post-processing chain:
  // for an honest device, PUF.Emulate() recomputes z exactly.
  Xoshiro256pp rng(17);
  int match = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t x = rng.next();
    const auto out = device_.query(x, Environment::nominal(), rng);
    const auto z = emulator_.emulate(x, out.helpers);
    ASSERT_TRUE(z.has_value());
    if (*z == out.z) ++match;
  }
  // Error correction handles the noise: expect near-perfect agreement.
  EXPECT_GE(match, trials - 1);
}

TEST_F(PipelineFixture, WrongChipModelFailsVerificationPerCall) {
  // Structural note (documented in EXPERIMENTS.md): when reconstruction
  // fails, the error y_rec XOR y' is always a *codeword*, and the paper's
  // fold (bit i XOR bit i+n) maps every RM(1,5) codeword to a constant
  // block.  A forged transcript therefore still matches z with probability
  // ~1/4 per PUF call; attestation security comes from the many PUF calls
  // per run (match probability (1/4)^k).  Here we check the per-call rate
  // is far below 1 (and the protocol-level tests check full rejection).
  const PufDevice impostor(small_config(32), 999, code_);
  Xoshiro256pp rng(18);
  int match = 0;
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t x = rng.next();
    const auto out = impostor.query(x, Environment::nominal(), rng);
    const auto z = emulator_.emulate(x, out.helpers);
    if (z && *z == out.z) ++match;
  }
  EXPECT_LT(match, trials / 2);
}

TEST(Obfuscation, FoldOfReedMullerCodewordIsConstant) {
  // The structural interaction behind the ~1/4 per-call forgery rate: for
  // every RM(1,5) codeword c, c[i] XOR c[i+16] = u_4 for all i — the fold
  // collapses codewords to all-zeros or all-ones.
  const ecc::ReedMuller1 rm(5);
  const ObfuscationNetwork net(32);
  for (std::uint64_t m = 0; m < 64; ++m) {
    const auto folded = net.fold(rm.encode(BitVector(6, m)));
    const auto weight = folded.popcount();
    EXPECT_TRUE(weight == 0 || weight == folded.size())
        << "message " << m << " gave weight " << weight;
  }
}

TEST_F(PipelineFixture, EmulatorRejectsWrongHelperCount) {
  EXPECT_FALSE(emulator_.emulate(1, {}).has_value());
}

TEST_F(PipelineFixture, HelperDataDependsOnResponseNoise) {
  Xoshiro256pp rng(19);
  const auto out1 = device_.query(5, Environment::nominal(), rng);
  const auto out2 = device_.query(5, Environment::nominal(), rng);
  // Same challenge, two physical queries: helper data usually differs in a
  // few syndrome bits (noisy responses), yet both verify to the same z.
  const auto z1 = emulator_.emulate(5, out1.helpers);
  const auto z2 = emulator_.emulate(5, out2.helpers);
  ASSERT_TRUE(z1.has_value());
  ASSERT_TRUE(z2.has_value());
  EXPECT_EQ(*z1, out1.z);
  EXPECT_EQ(*z2, out2.z);
}

TEST(Pipeline, RejectsCodeWidthMismatch) {
  const ecc::ReedMuller1 rm4(4);  // n = 16, but PUF width 32
  EXPECT_THROW(PufDevice(small_config(32), 1, rm4), std::invalid_argument);
}

// ------------------------------------------------ verdict-path PUF() call

/// The generic PUF.Emulate() body the fixed-width verdict path replaced,
/// kept as its exactness oracle: scalar eval_soft per raw challenge,
/// SyndromeHelper::reproduce_soft, the distance loop, and the BitVector
/// obfuscation.  Helper words are cut to helper_bits() the way
/// core::helper_from_word cuts them (a BitVector of that size).
struct OracleCall {
  std::optional<BitVector> z;
  std::array<BitVector, 8> responses;
  PufEmulator::CallStats stats;
};

OracleCall oracle_emulate_raw(const PufEmulator& emulator,
                              const ecc::BinaryCode& code,
                              const std::array<std::uint64_t, 8>& challenges,
                              const std::array<std::uint32_t, 8>& helpers) {
  const std::size_t width = emulator.raw_emulator().response_bits();
  const ecc::SyndromeHelper helper(code);
  const ObfuscationNetwork obfuscation(width,
                                       ObfuscationNetwork::Pairing::kHardened);
  OracleCall out;
  for (std::size_t r = 0; r < 8; ++r) {
    const auto reference_llr = emulator.raw_emulator().eval_soft(
        Challenge(2 * width, challenges[r]));
    const auto reconstructed = helper.reproduce_soft(
        reference_llr, BitVector(helper.helper_bits(), helpers[r]));
    if (!reconstructed) {
      ADD_FAILURE() << "RM(1,m) soft decoding never gives up";
      return out;
    }
    for (std::size_t i = 0; i < reference_llr.size(); ++i) {
      const bool reference_bit = reference_llr[i] < 0.0;
      if (reconstructed->get(i) != reference_bit) {
        ++out.stats.distance;
        out.stats.weighted_ps += std::abs(reference_llr[i]);
      }
    }
    out.responses[r] = *reconstructed;
  }
  if (out.stats.distance > emulator.max_call_distance() ||
      out.stats.weighted_ps > emulator.max_weighted_distance()) {
    return out;
  }
  out.z = obfuscation.obfuscate(out.responses);
  return out;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bit-for-bit agreement of one fixed-width call with the oracle.
::testing::AssertionResult same_call(const PufEmulator::Emulation& got,
                                     const OracleCall& want,
                                     std::size_t width) {
  if (got.z.has_value() != want.z.has_value()) {
    return ::testing::AssertionFailure() << "z presence differs";
  }
  if (got.z && BitVector(width, *got.z) != *want.z) {
    return ::testing::AssertionFailure() << "z differs";
  }
  if (got.stats.distance != want.stats.distance) {
    return ::testing::AssertionFailure()
           << "distance " << got.stats.distance << " vs "
           << want.stats.distance;
  }
  if (!same_double(got.stats.weighted_ps, want.stats.weighted_ps)) {
    return ::testing::AssertionFailure()
           << "weighted_ps " << got.stats.weighted_ps << " vs "
           << want.stats.weighted_ps;
  }
  return ::testing::AssertionSuccess();
}

/// Runs `calls` PUF() calls through the fixed-width path and the oracle:
/// honest helpers, helpers from a device overclocked 1.15-2x on
/// carry-chain challenges (setup violations, so decoder miscorrections and
/// over-budget calls), and
/// random full 32-bit helper words (bits above helper_bits() set).
void check_against_oracle(unsigned m, std::uint64_t chip_seed,
                          std::size_t calls) {
  const std::size_t width = std::size_t{1} << m;
  const ecc::ReedMuller1 code(m);
  const PufDevice device(small_config(width), chip_seed, code);
  const PufEmulator emulator(width, device.export_model(), code);
  const auto env = Environment::nominal();
  // Cycle at 1.00x: the capture deadline sits at the worst-case settle.
  const double base_cycle_ps = device.raw_puf().max_settle_ps(env) + 20.0;
  const std::uint64_t mask =
      width == 32 ? ~0ULL : (std::uint64_t{1} << (2 * width)) - 1;
  Xoshiro256pp rng(chip_seed ^ 0xE4AC7);
  std::size_t accepted = 0, over_budget = 0, miscorrected = 0;
  for (std::size_t call = 0; call < calls; ++call) {
    std::array<std::uint64_t, 8> words;
    std::array<Challenge, 8> challenges;
    for (std::size_t r = 0; r < 8; ++r) {
      words[r] = rng.next() & mask;
      if (call % 4 == 2) {
        // b = ~a, as the SWAT program derives them: a long carry chain, so
        // the overclocked capture deadline actually bites.
        const std::uint64_t a = words[r] & (mask >> width);
        words[r] = a | ((~a & (mask >> width)) << width);
      }
      challenges[r] = Challenge(2 * width, words[r]);
    }
    std::array<std::uint32_t, 8> helpers;
    std::vector<RawResponse> raw;
    if (call % 4 == 3) {
      for (auto& h : helpers) h = static_cast<std::uint32_t>(rng.next());
    } else {
      const ClockConstraint clock{
          base_cycle_ps / (1.15 + 0.85 * rng.uniform()), 20.0};
      const ClockConstraint* c = call % 4 == 2 ? &clock : nullptr;
      Xoshiro256pp copy = rng;
      const auto out = device.query_raw(challenges, env, rng, c);
      raw = device.raw_puf().eval_batch(challenges.data(), 8, env, copy, c);
      for (std::size_t r = 0; r < 8; ++r) {
        helpers[r] = static_cast<std::uint32_t>(out.helpers[r].to_u64());
      }
    }
    const auto got = emulator.emulate_raw(words, helpers, env);
    const auto want = oracle_emulate_raw(emulator, code, words, helpers);
    ASSERT_TRUE(same_call(got, want, width)) << "width " << width
                                             << " call " << call;
    (got.z ? accepted : over_budget) += 1;
    for (std::size_t r = 0; r < raw.size(); ++r) {
      if (want.responses[r] != raw[r]) {
        ++miscorrected;
        break;
      }
    }
  }
  // The corpus reaches every branch the budgets and decoder can take.
  EXPECT_GT(accepted, calls / 4) << "width " << width;
  EXPECT_GT(over_budget, calls / 8) << "width " << width;
  EXPECT_GT(miscorrected, calls / 16) << "width " << width;
}

TEST(PufEmulator, FixedWidthMatchesGenericOracle) {
  check_against_oracle(5, 0x81, 20000);
  check_against_oracle(4, 0x82, 20000);
}

TEST(PufEmulator, ReconstructMatchesOracleOnNearTies) {
  // Hand-built LLRs the emulator rarely produces: signed zeros, denormals
  // and equal-magnitude FWHT peaks, where the strict-> first-maximum
  // tie-break, the `f[best] < 0.0` sign test and the `llr < 0.0`
  // reference bit decide the outcome.
  Xoshiro256pp rng(0x83);
  for (const unsigned m : {4u, 5u}) {
    const std::size_t n = std::size_t{1} << m;
    const ecc::ReedMuller1 code(m);
    const ecc::SyndromeHelper helper(code);
    const AluPuf puf(small_config(n), 0x84);
    const PufEmulator emulator(n, puf.export_model(), code);
    const auto sign = [&](std::uint64_t message, std::size_t i) {
      return code.encode(BitVector(m + 1, message)).get(i) ? -1.0 : 1.0;
    };
    std::vector<std::vector<double>> corpus;
    corpus.emplace_back(n, 0.0);
    corpus.emplace_back(n, -0.0);
    for (std::uint64_t a = 0; a < 8; ++a) {
      const std::uint64_t b = (a * 13 + 5) % (std::uint64_t{2} << m);
      std::vector<double> tie(n), zeroed(n), tiny(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Two codewords superposed: two FWHT peaks of equal magnitude.
        tie[i] = sign(a, i) + sign(b, i);
        // Mixed-sign zeros where the two disagree.
        zeroed[i] = tie[i] == 0.0 ? (i % 3 == 0 ? -0.0 : 0.0) : tie[i];
        tiny[i] = sign(a, i) * 4.9e-324;
      }
      corpus.push_back(tie);
      corpus.push_back(zeroed);
      corpus.push_back(tiny);
      std::vector<double> negated = tie;
      for (auto& v : negated) v = -v;
      corpus.push_back(negated);
    }
    for (int k = 0; k < 64; ++k) {
      static constexpr double kValues[] = {-1.0, -0.0, 0.0, 1.0, 4.9e-324,
                                           -4.9e-324, 0.5, -0.5};
      std::vector<double> pick(n);
      for (auto& v : pick) v = kValues[rng.uniform_u64(8)];
      corpus.push_back(pick);
    }
    for (const auto& llr : corpus) {
      std::array<double, 32> fixed{};
      std::copy(llr.begin(), llr.end(), fixed.begin());
      for (const std::uint32_t h :
           {0u, 0xFFFFFFFFu, static_cast<std::uint32_t>(rng.next())}) {
        PufEmulator::CallStats got;
        const std::uint32_t y = emulator.reconstruct(fixed, h, got);
        const auto want =
            helper.reproduce_soft(llr, BitVector(helper.helper_bits(), h));
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(BitVector(n, y), *want);
        PufEmulator::CallStats expect;
        for (std::size_t i = 0; i < n; ++i) {
          if (want->get(i) != (llr[i] < 0.0)) {
            ++expect.distance;
            expect.weighted_ps += std::abs(llr[i]);
          }
        }
        EXPECT_EQ(got.distance, expect.distance);
        EXPECT_TRUE(same_double(got.weighted_ps, expect.weighted_ps));
      }
    }
  }
}

TEST(PufEmulator, SilentMiscorrectionIsPinned) {
  // An honest call whose soft decoder snaps one response onto the wrong
  // codeword while the call stays inside both distance budgets: the
  // verifier accepts the call and recomputes a z the prover never
  // produced, so the transcript fails later as a checksum mismatch, not a
  // reconstruction rejection.  Found by scanning honest calls over dies
  // 1-400 (5 such calls in 1.6M).
  const ecc::ReedMuller1 code(5);
  const PufDevice device(small_config(32), 68, code);
  const PufEmulator emulator(32, device.export_model(), code);
  const auto env = Environment::nominal();
  Xoshiro256pp rng(68001840);
  std::array<std::uint64_t, 8> words;
  std::array<Challenge, 8> challenges;
  for (std::size_t r = 0; r < 8; ++r) {
    words[r] = rng.next();
    challenges[r] = Challenge(64, words[r]);
  }
  Xoshiro256pp copy = rng;
  const auto out = device.query_raw(challenges, env, rng);
  const auto raw = device.raw_puf().eval_batch(challenges.data(), 8, env, copy);
  std::array<std::uint32_t, 8> helpers;
  for (std::size_t r = 0; r < 8; ++r) {
    helpers[r] = static_cast<std::uint32_t>(out.helpers[r].to_u64());
  }
  const auto got = emulator.emulate_raw(words, helpers, env);
  const auto want = oracle_emulate_raw(emulator, code, words, helpers);
  EXPECT_TRUE(same_call(got, want, 32));
  ASSERT_TRUE(got.z.has_value());
  EXPECT_LE(got.stats.distance, emulator.max_call_distance());
  EXPECT_LE(got.stats.weighted_ps, emulator.max_weighted_distance());
  std::size_t wrong = 0;
  for (std::size_t r = 0; r < 8; ++r) wrong += want.responses[r] != raw[r];
  EXPECT_GE(wrong, 1u);
  EXPECT_NE(BitVector(32, *got.z), out.z);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(*got.z),
        static_cast<std::uint64_t>(got.stats.distance),
        std::bit_cast<std::uint64_t>(got.stats.weighted_ps)}) {
    digest = (digest ^ word) * 0x100000001B3ULL;
  }
  EXPECT_EQ(digest, 0x2A4133D1B5773C9CULL) << std::hex << digest;
}

TEST(PufEmulator, ConcurrentEmulateAfterPrewarm) {
  // The emulator keeps no per-call state: once prewarmed, four threads
  // sharing one instance get exactly the serial results (and TSan sees no
  // race) — the precondition for serving a device without a lease.
  const ecc::ReedMuller1 code(5);
  const PufDevice device(small_config(32), 0x85, code);
  const PufEmulator emulator(32, device.export_model(), code);
  const auto env = Environment::nominal();
  emulator.raw_emulator().prewarm(env);
  constexpr std::size_t kCalls = 500;
  std::vector<std::array<std::uint64_t, 8>> words(kCalls);
  std::vector<std::array<std::uint32_t, 8>> helpers(kCalls);
  Xoshiro256pp rng(0x86);
  for (std::size_t call = 0; call < kCalls; ++call) {
    std::array<Challenge, 8> challenges;
    for (std::size_t r = 0; r < 8; ++r) {
      words[call][r] = rng.next();
      challenges[r] = Challenge(64, words[call][r]);
    }
    const auto out = device.query_raw(challenges, env, rng);
    for (std::size_t r = 0; r < 8; ++r) {
      helpers[call][r] = static_cast<std::uint32_t>(out.helpers[r].to_u64());
    }
  }
  const auto run = [&] {
    std::vector<PufEmulator::Emulation> results;
    results.reserve(kCalls);
    for (std::size_t call = 0; call < kCalls; ++call) {
      results.push_back(emulator.emulate_raw(words[call], helpers[call], env));
    }
    return results;
  };
  const auto serial = run();
  std::array<std::vector<PufEmulator::Emulation>, 4> parallel;
  std::vector<std::thread> threads;
  for (auto& result : parallel) {
    threads.emplace_back([&run, &result] { result = run(); });
  }
  for (auto& t : threads) t.join();
  for (const auto& result : parallel) {
    ASSERT_EQ(result.size(), kCalls);
    for (std::size_t call = 0; call < kCalls; ++call) {
      EXPECT_EQ(result[call].z, serial[call].z) << "call " << call;
      EXPECT_EQ(result[call].stats.distance, serial[call].stats.distance);
      EXPECT_TRUE(same_double(result[call].stats.weighted_ps,
                              serial[call].stats.weighted_ps));
    }
  }
}

TEST(PufEmulator, ThreadScratchSurvivesEmulatorTurnover) {
  // The per-thread bit-slice scratch outlives the emulators it serves.
  // An emulator-cache churn — destroy one, build the next, very likely at
  // the same addresses — must not replay the previous die's baked plan.
  const ecc::ReedMuller1 code(5);
  Xoshiro256pp rng(0x87);
  for (std::uint64_t chip = 0; chip < 12; ++chip) {
    const PufDevice device(small_config(32), 0x88 + chip, code);
    auto emulator =
        std::make_unique<PufEmulator>(32, device.export_model(), code);
    std::array<std::uint64_t, 8> words;
    std::array<std::uint32_t, 8> helpers;
    for (auto& w : words) w = rng.next();
    for (auto& h : helpers) h = static_cast<std::uint32_t>(rng.next());
    EXPECT_TRUE(same_call(emulator->emulate_raw(words, helpers),
                          oracle_emulate_raw(*emulator, code, words, helpers),
                          32))
        << "chip " << chip;
  }
}

TEST(Obfuscation, WordFormMatchesBitVectorForm) {
  Xoshiro256pp rng(0x89);
  for (const std::size_t two_n : {8u, 12u, 16u, 30u, 32u}) {
    for (const auto pairing : {ObfuscationNetwork::Pairing::kPaper,
                               ObfuscationNetwork::Pairing::kHardened}) {
      const ObfuscationNetwork net(two_n, pairing);
      for (int trial = 0; trial < 200; ++trial) {
        std::array<BitVector, 8> y;
        std::array<std::uint32_t, 8> words;
        for (std::size_t r = 0; r < 8; ++r) {
          // High bits above the response width must be ignored.
          words[r] = static_cast<std::uint32_t>(rng.next());
          y[r] = BitVector(two_n, words[r]);
        }
        EXPECT_EQ(BitVector(two_n, net.obfuscate_words(words)),
                  net.obfuscate(y));
      }
    }
  }
  EXPECT_THROW(ObfuscationNetwork(34).obfuscate_words({}), std::logic_error);
}

// -------------------------------------------------------------- ArbiterPuf

TEST(ArbiterPuf, FeatureMapMatchesDefinition) {
  const auto phi = ArbiterPuf::features(BitVector::from_string("0110"));
  // challenge bits (LSB first): c0=0, c1=1, c2=1, c3=0
  // phi[i] = prod_{j>=i} (1-2c_j); phi[4] = 1
  ASSERT_EQ(phi.size(), 5u);
  EXPECT_DOUBLE_EQ(phi[4], 1.0);
  EXPECT_DOUBLE_EQ(phi[3], 1.0);    // c3=0
  EXPECT_DOUBLE_EQ(phi[2], -1.0);   // c2=1
  EXPECT_DOUBLE_EQ(phi[1], 1.0);    // c1=1, c2=1
  EXPECT_DOUBLE_EQ(phi[0], 1.0);    // c0=0
}

TEST(ArbiterPuf, DeltaIsLinearInFeatures) {
  const ArbiterPuf puf({.stages = 16}, 1);
  Xoshiro256pp rng(20);
  // delta(c) computed two ways must agree; linearity over feature XOR is
  // what the LR attack exploits.
  for (int trial = 0; trial < 50; ++trial) {
    const auto c = BitVector::random(16, rng);
    const double d = puf.delta(c);
    EXPECT_EQ(puf.eval_ideal(c), d > 0.0);
  }
}

TEST(ArbiterPuf, InterChipAboutFiftyPercent) {
  // A single chip pair's disagreement rate is the angle between two random
  // weight vectors (noticeably spread), so average over several pairs.
  const ArbiterPufParams params{.stages = 64};
  Xoshiro256pp rng(21);
  double total = 0.0;
  const int pairs = 8;
  const int trials = 2000;
  for (int p = 0; p < pairs; ++p) {
    const ArbiterPuf a(params, 100 + 2 * p), b(params, 101 + 2 * p);
    int diff = 0;
    for (int i = 0; i < trials; ++i) {
      const auto c = BitVector::random(64, rng);
      if (a.eval_ideal(c) != b.eval_ideal(c)) ++diff;
    }
    total += static_cast<double>(diff) / trials;
  }
  EXPECT_NEAR(total / pairs, 0.5, 0.05);
}

TEST(ArbiterPuf, IntraChipSmall) {
  const ArbiterPuf puf({.stages = 64, .noise_sigma = 0.3}, 3);
  Xoshiro256pp rng(22);
  int diff = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto c = BitVector::random(64, rng);
    if (puf.eval(c, rng) != puf.eval(c, rng)) ++diff;
  }
  const double intra = static_cast<double>(diff) / trials;
  EXPECT_GT(intra, 0.0);
  EXPECT_LT(intra, 0.15);
}

TEST(ArbiterPuf, RejectsBadInput) {
  EXPECT_THROW(ArbiterPuf({.stages = 0}, 1), std::invalid_argument);
  const ArbiterPuf puf({.stages = 8}, 1);
  EXPECT_THROW(puf.delta(BitVector(7)), std::invalid_argument);
}

// -------------------------------------------------- FeedForwardArbiterPuf

TEST(FeedForwardArbiterPuf, RejectsBadLoops) {
  FeedForwardParams params;
  params.stages = 32;
  params.loops = {{10, 5}};
  EXPECT_THROW(FeedForwardArbiterPuf(params, 1), std::invalid_argument);
  params.loops = {{10, 40}};
  EXPECT_THROW(FeedForwardArbiterPuf(params, 1), std::invalid_argument);
}

TEST(FeedForwardArbiterPuf, DeterministicIdealEval) {
  const FeedForwardArbiterPuf puf({}, 5);
  Xoshiro256pp rng(23);
  const auto c = BitVector::random(64, rng);
  EXPECT_EQ(puf.eval_ideal(c), puf.eval_ideal(c));
}

TEST(FeedForwardArbiterPuf, InterChipNearHalf) {
  const FeedForwardArbiterPuf a({}, 10), b({}, 11);
  Xoshiro256pp rng(24);
  int diff = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto c = BitVector::random(64, rng);
    if (a.eval_ideal(c) != b.eval_ideal(c)) ++diff;
  }
  EXPECT_NEAR(static_cast<double>(diff) / trials, 0.5, 0.07);
}

TEST(FeedForwardArbiterPuf, NoisierThanPlainArbiter) {
  // The paper's reference point: FF-arbiter intra-chip HD (9.8%) exceeds
  // the plain arbiter's, because intermediate arbiter flips cascade.
  const double noise = 0.3;
  const ArbiterPuf plain({.stages = 64, .noise_sigma = noise}, 30);
  FeedForwardParams ff_params;
  ff_params.noise_sigma = noise;
  const FeedForwardArbiterPuf ff(ff_params, 30);
  Xoshiro256pp rng(25);
  int plain_diff = 0, ff_diff = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto c = BitVector::random(64, rng);
    if (plain.eval(c, rng) != plain.eval(c, rng)) ++plain_diff;
    if (ff.eval(c, rng) != ff.eval(c, rng)) ++ff_diff;
  }
  EXPECT_GE(ff_diff, plain_diff);
}

// ------------------------------------------------------------ batch paths

TEST(AluPufBatch, DeviceBatchConsumesOneNextAndIsReproducible) {
  // The eval_batch RNG contract (see alu_puf.hpp): the batch spends
  // exactly one rng.next() of the caller's generator, and the responses
  // are a pure function of (that value, challenges).
  const AluPuf puf(small_config(), 11);
  const auto env = Environment::nominal();
  std::vector<Challenge> challenges;
  {
    Xoshiro256pp crng(77);
    for (int i = 0; i < 64; ++i) {
      challenges.push_back(random_challenge(16, crng));
    }
  }
  Xoshiro256pp rng(1234);
  Xoshiro256pp probe = rng;
  const auto batch =
      puf.eval_batch(challenges.data(), challenges.size(), env, rng);
  ASSERT_EQ(batch.size(), challenges.size());
  // Exactly one next() consumed: after one probe step the streams align.
  probe.next();
  EXPECT_EQ(rng.next(), probe.next());
  // Same caller state -> bit-identical batch.
  Xoshiro256pp rng2(1234);
  const auto again =
      puf.eval_batch(challenges.data(), challenges.size(), env, rng2);
  ASSERT_EQ(again.size(), batch.size());
  for (std::size_t x = 0; x < batch.size(); ++x) {
    EXPECT_EQ(batch[x], again[x]) << "lane " << x;
  }
  // A different batch seed is a different noise realization: with 64
  // lanes of 16 metastability-prone bits some response must move.
  Xoshiro256pp rng3(4321);
  const auto other =
      puf.eval_batch(challenges.data(), challenges.size(), env, rng3);
  bool any_diff = false;
  for (std::size_t x = 0; x < batch.size(); ++x) {
    if (!(batch[x] == other[x])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AluPufBatch, DeviceBatchNoiseMatchesScalarStatistically) {
  // The batch path samples noise with a different (faster) sampler than
  // scalar eval, so the contract is distributional: the per-bit flip rate
  // of repeated noisy evaluations of one challenge must match the scalar
  // path's within statistical slack.
  const AluPuf puf(small_config(), 11);
  const auto env = Environment::nominal();
  Xoshiro256pp crng(7);
  const auto challenge = random_challenge(16, crng);
  const std::size_t reps = 512;

  Xoshiro256pp srng(100);
  const auto reference = puf.eval(challenge, env, srng);
  std::size_t scalar_flips = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    scalar_flips += (puf.eval(challenge, env, srng) ^ reference).popcount();
  }

  // Each batch lane is an independent realization of the same challenge.
  std::vector<Challenge> lanes(reps, challenge);
  Xoshiro256pp brng(200);
  const auto batch = puf.eval_batch(lanes.data(), lanes.size(), env, brng);
  std::size_t batch_flips = 0;
  for (const auto& r : batch) batch_flips += (r ^ reference).popcount();

  const double scalar_rate =
      static_cast<double>(scalar_flips) / (reps * 16.0);
  const double batch_rate = static_cast<double>(batch_flips) / (reps * 16.0);
  EXPECT_NEAR(batch_rate, scalar_rate, 0.05);
}

TEST(AluPufBatch, ClockConstraintBatchReproducibleAndMetastable) {
  const AluPuf puf(small_config(), 3);
  const auto env = Environment::nominal();
  // Aggressive deadline (a fifth of the worst-case settle): random
  // challenges settle early, so it takes a starved clock to push bits
  // into the bernoulli setup-violation path.  Those draws must stay
  // inside the per-lane derived stream (reproducible) while still
  // resolving like a fair coin across seeds (more inter-seed
  // disagreement than the unclocked device).
  const ClockConstraint clock{puf.max_settle_ps(env) * 0.2 + 20.0, 20.0};
  std::vector<Challenge> challenges;
  {
    Xoshiro256pp crng(5);
    for (int i = 0; i < 32; ++i) {
      challenges.push_back(random_challenge(16, crng));
    }
  }
  Xoshiro256pp rng_a(99);
  Xoshiro256pp rng_b(99);
  const auto clocked = puf.eval_batch(challenges.data(), challenges.size(),
                                      env, rng_a, &clock);
  const auto clocked_again = puf.eval_batch(
      challenges.data(), challenges.size(), env, rng_b, &clock);
  ASSERT_EQ(clocked.size(), challenges.size());
  for (std::size_t x = 0; x < clocked.size(); ++x) {
    EXPECT_EQ(clocked[x], clocked_again[x]) << "lane " << x;
  }

  const auto diff_bits = [&](const std::vector<RawResponse>& a,
                             const std::vector<RawResponse>& b) {
    std::size_t bits = 0;
    for (std::size_t x = 0; x < a.size(); ++x) bits += (a[x] ^ b[x]).popcount();
    return bits;
  };
  Xoshiro256pp rng_c(77);
  Xoshiro256pp rng_d(99);
  Xoshiro256pp rng_e(77);
  const auto clocked_other = puf.eval_batch(
      challenges.data(), challenges.size(), env, rng_c, &clock);
  const auto plain = puf.eval_batch(challenges.data(), challenges.size(), env,
                                    rng_d);
  const auto plain_other = puf.eval_batch(challenges.data(),
                                          challenges.size(), env, rng_e);
  EXPECT_GT(diff_bits(clocked, clocked_other),
            diff_bits(plain, plain_other));
}

TEST(AluPufBatch, EmulatorBatchBitIdenticalToScalar) {
  const AluPuf puf(small_config(), 21);
  const AluPufEmulator emulator(16, puf.export_model());
  std::vector<Challenge> challenges;
  Xoshiro256pp rng(31);
  for (int i = 0; i < 25; ++i) challenges.push_back(random_challenge(16, rng));
  const auto batch = emulator.eval_batch(challenges.data(), challenges.size());
  std::vector<double> soft;
  emulator.eval_soft_batch(challenges.data(), challenges.size(), soft);
  for (std::size_t x = 0; x < challenges.size(); ++x) {
    EXPECT_EQ(batch[x], emulator.eval(challenges[x]));
    const auto scalar_soft = emulator.eval_soft(challenges[x]);
    for (std::size_t i = 0; i < scalar_soft.size(); ++i) {
      EXPECT_EQ(soft[x * 16 + i], scalar_soft[i]);
    }
  }
}

TEST(AluPufBatch, DeviceQueryBatchMatchesObfuscationShape) {
  const ecc::ReedMuller1 code(5);
  const AluPufConfig config;  // width 32 to match RM(1,5)
  const PufDevice device(config, 8, code);
  const auto env = Environment::nominal();
  Xoshiro256pp rng(17);
  const std::uint64_t xs[] = {1, 2, 3};
  const auto outs = device.query_batch(xs, 3, env, rng);
  ASSERT_EQ(outs.size(), 3u);
  for (const auto& out : outs) {
    EXPECT_EQ(out.z.size(), device.output_bits());
    EXPECT_EQ(out.helpers.size(), ObfuscationNetwork::kResponsesPerOutput);
  }
  // The verifier reconstructs every batched output.
  PufEmulator verifier(32, device.export_model(), code);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto z = verifier.emulate(xs[i], outs[i].helpers, env);
    ASSERT_TRUE(z.has_value());
    EXPECT_EQ(*z, outs[i].z);
  }
}

// ------------------------------------------------------ prover batch path

std::array<Challenge, 8> random_call(Xoshiro256pp& rng) {
  std::array<Challenge, 8> call;
  for (auto& c : call) c = random_challenge(32, rng);
  return call;
}

TEST(PufDevice, QueryRawIsOneEvalBatch) {
  // One PUF() call is one 8-lane eval_batch: exactly one rng.next(), then
  // the same helper data and hardened obfuscation as the verifier applies.
  const ecc::ReedMuller1 code(5);
  const PufDevice device(small_config(32), 0x51, code);
  const ecc::SyndromeHelper helper(code);
  const ObfuscationNetwork obfuscation(32,
                                       ObfuscationNetwork::Pairing::kHardened);
  const auto env = Environment::nominal();
  // A starved capture deadline, so the clocked pass exercises the
  // setup-violation coin flips as well as the arbiter.
  const ClockConstraint clock{device.raw_puf().max_settle_ps(env) * 0.5, 20.0};
  Xoshiro256pp crng(0x52);
  for (const ClockConstraint* c : {static_cast<const ClockConstraint*>(nullptr),
                                   &clock}) {
    for (int call = 0; call < 4; ++call) {
      const auto challenges = random_call(crng);
      Xoshiro256pp rng(0x53 + call);
      Xoshiro256pp copy = rng;
      Xoshiro256pp probe = rng;
      const auto out = device.query_raw(challenges, env, rng, c);
      probe.next();
      EXPECT_EQ(rng.next(), probe.next()) << "call " << call;

      auto raw = device.raw_puf().eval_batch(challenges.data(), 8, env, copy, c);
      ASSERT_EQ(raw.size(), 8u);
      ASSERT_EQ(out.helpers.size(), 8u);
      std::array<BitVector, 8> group;
      for (std::size_t r = 0; r < 8; ++r) {
        EXPECT_EQ(out.helpers[r], helper.generate(raw[r]));
        group[r] = raw[r];
      }
      EXPECT_EQ(out.z, obfuscation.obfuscate(group));
    }
  }
}

TEST(PufDevice, QueryMatchesSingleQueryBatch) {
  const ecc::ReedMuller1 code(5);
  const PufDevice device(small_config(32), 0x54, code);
  const auto env = Environment::nominal();
  const ClockConstraint clock{device.raw_puf().max_settle_ps(env) * 0.5, 20.0};
  for (const ClockConstraint* c : {static_cast<const ClockConstraint*>(nullptr),
                                   &clock}) {
    for (std::uint64_t x : {0x0ULL, 0x55ULL, 0xFFFFFFFFFFFFFFFFULL}) {
      Xoshiro256pp rng_a(0x56 + x);
      Xoshiro256pp rng_b(0x56 + x);
      const auto single = device.query(x, env, rng_a, c);
      const auto batch = device.query_batch(&x, 1, env, rng_b, c);
      ASSERT_EQ(batch.size(), 1u);
      EXPECT_EQ(single.z, batch[0].z);
      EXPECT_EQ(single.helpers, batch[0].helpers);
      EXPECT_EQ(rng_a.next(), rng_b.next());
    }
  }
}

TEST(PufDevice, BatchedFlipRateMatchesScalar) {
  // The prover's races ride the batch sampler, which is statistically
  // equivalent to scalar eval but not stream-identical.  The intra-chip
  // flip rate (bits differing between two readings of one challenge) of
  // query_raw's raw responses — one 8-lane eval_batch per call, as
  // QueryRawIsOneEvalBatch pins — must match scalar eval's over 2000
  // challenges, within 4 binomial standard errors of the rate difference
  // (~0.007 on a rate of ~0.11).  The rate is metastability-dominated:
  // dropping the arbiter draw leaves ~0.02 from delay jitter alone, and a
  // noise stream reused between the two readings leaves 0.
  const AluPuf puf(small_config(32), 0x57);
  const auto env = Environment::nominal();
  Xoshiro256pp crng(0x58);
  Xoshiro256pp batch_rng(0x59);
  Xoshiro256pp scalar_rng(0x5A);
  const std::size_t calls = 250;  // 2000 challenges
  std::size_t batch_flips = 0;
  std::size_t scalar_flips = 0;
  for (std::size_t call = 0; call < calls; ++call) {
    const auto challenges = random_call(crng);
    const auto first = puf.eval_batch(challenges.data(), 8, env, batch_rng);
    const auto second = puf.eval_batch(challenges.data(), 8, env, batch_rng);
    for (std::size_t r = 0; r < 8; ++r) {
      batch_flips += first[r].hamming_distance(second[r]);
      scalar_flips += puf.eval(challenges[r], env, scalar_rng)
                          .hamming_distance(
                              puf.eval(challenges[r], env, scalar_rng));
    }
  }
  const double bits = static_cast<double>(calls * 8 * 32);
  const double batch_rate = static_cast<double>(batch_flips) / bits;
  const double scalar_rate = static_cast<double>(scalar_flips) / bits;
  const double pooled = (batch_rate + scalar_rate) / 2.0;
  const double stderr_diff = std::sqrt(pooled * (1.0 - pooled) * 2.0 / bits);
  EXPECT_GT(scalar_rate, 0.0);
  EXPECT_NEAR(batch_rate, scalar_rate, 4.0 * stderr_diff)
      << "batch " << batch_rate << " scalar " << scalar_rate;
}

TEST(AluPuf, NullScratchIsPerThread) {
  // eval_batch with no caller scratch uses the calling thread's own
  // buffers: two threads evaluating distinct prewarmed PUFs concurrently
  // get exactly their single-threaded results (and TSan sees no race).
  const auto env = Environment::nominal();
  const AluPuf puf_a(small_config(32), 0x5B);
  const AluPuf puf_b(small_config(32), 0x5C);
  puf_a.prewarm(env);
  puf_b.prewarm(env);
  Xoshiro256pp crng(0x5D);
  const auto challenges = random_call(crng);
  const int rounds = 50;
  const auto run = [&](const AluPuf& puf, std::uint64_t seed) {
    Xoshiro256pp rng(seed);
    std::vector<RawResponse> out;
    for (int i = 0; i < rounds; ++i) {
      for (auto& r : puf.eval_batch(challenges.data(), 8, env, rng)) {
        out.push_back(std::move(r));
      }
    }
    return out;
  };
  const auto expected_a = run(puf_a, 1);
  const auto expected_b = run(puf_b, 2);
  std::vector<RawResponse> got_a, got_b;
  std::thread ta([&] { got_a = run(puf_a, 1); });
  std::thread tb([&] { got_b = run(puf_b, 2); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, expected_a);
  EXPECT_EQ(got_b, expected_b);
}

}  // namespace
}  // namespace pufatt::alupuf
