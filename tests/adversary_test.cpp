// Tests for the adversary lab: variant surfaces, attack learners, the
// replay protocol and the tournament's determinism contracts.  Heavy cells
// run width-16 ALU PUFs (RM(1,4) helper code) and small budgets — the
// full-size matrix lives in bench/attack_matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "adversary/frontends.hpp"
#include "adversary/tournament.hpp"
#include "alupuf/arbiter_puf.hpp"

namespace pufatt::adversary {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

AluVariantParams small_alu() {
  AluVariantParams p;
  p.width = 16;
  p.bit = 8;
  return p;
}

// ------------------------------------------------------------ query oracle

TEST(QueryOracle, AccountsAndClampsBudget) {
  const auto variant = make_arbiter_variant({}, 1);
  QueryOracle oracle(*variant, 100);
  Xoshiro256pp rng(2);
  EXPECT_EQ(oracle.collect(60, rng).size(), 60u);
  EXPECT_EQ(oracle.used(), 60u);
  EXPECT_EQ(oracle.remaining(), 40u);
  // Over-asking clamps to what is left; the oracle never exceeds budget.
  EXPECT_EQ(oracle.collect(60, rng).size(), 40u);
  EXPECT_EQ(oracle.used(), 100u);
  EXPECT_EQ(oracle.collect(10, rng).size(), 0u);
  EXPECT_EQ(oracle.used(), 100u);
}

// ------------------------------------------------------------------ LogReg

TEST(LogisticRegression, RejectsZeroFeatures) {
  EXPECT_THROW(LogisticRegression(0), std::invalid_argument);
}

TEST(LogisticRegression, PredictValidatesSize) {
  LogisticRegression model(3);
  EXPECT_THROW(model.predict_probability({1.0}), std::invalid_argument);
}

TEST(LogisticRegression, UntrainedPredictsHalf) {
  LogisticRegression model(4);
  EXPECT_DOUBLE_EQ(model.predict_probability({1, 1, 1, 1}), 0.5);
}

TEST(LogisticRegression, LearnsLinearlySeparableData) {
  // Labels = sign of a fixed linear function: LR must reach ~100%.
  Xoshiro256pp rng(1);
  const std::vector<double> true_w{1.5, -2.0, 0.7, 0.0, 0.3};
  std::vector<Example> train, test;
  auto make = [&](std::size_t n, std::vector<Example>& out) {
    for (std::size_t i = 0; i < n; ++i) {
      Example ex;
      double z = 0.0;
      for (const auto w : true_w) {
        ex.features.push_back(rng.gaussian());
        z += w * ex.features.back();
      }
      ex.label = z > 0.0;
      out.push_back(std::move(ex));
    }
  };
  make(2000, train);
  make(500, test);
  LogisticRegression model(true_w.size());
  model.train(train, {}, rng);
  EXPECT_GT(model.accuracy(test), 0.95);
}

TEST(LogisticRegression, RandomLabelsStayNearChance) {
  Xoshiro256pp rng(2);
  std::vector<Example> train, test;
  for (int i = 0; i < 1500; ++i) {
    Example ex;
    for (int f = 0; f < 8; ++f) ex.features.push_back(rng.gaussian());
    ex.label = rng.bernoulli(0.5);
    (i < 1000 ? train : test).push_back(std::move(ex));
  }
  LogisticRegression model(8);
  model.train(train, {}, rng);
  EXPECT_LT(model.accuracy(test), 0.60);
}

TEST(LogisticRegression, EmptyDatasetIsNoop) {
  Xoshiro256pp rng(3);
  LogisticRegression model(2);
  EXPECT_NO_THROW(model.train({}, {}, rng));
  EXPECT_DOUBLE_EQ(model.accuracy({}), 0.0);
}

// ---------------------------------------------------------------- features

TEST(Features, ArbiterParityTransform) {
  const auto phi = alupuf::ArbiterPuf::features(BitVector::from_string("0000"));
  ASSERT_EQ(phi.size(), 5u);
  for (const auto v : phi) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Features, AluFeatureLayout) {
  Xoshiro256pp rng(4);
  const auto c = BitVector::random(32, rng);  // width 16
  const auto f = alu_features(c);
  EXPECT_EQ(f.size(), 32u + 16u + 1u);
  EXPECT_DOUBLE_EQ(f.back(), 1.0);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(f[i], c.get(i) ? 1.0 : -1.0);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const bool p = c.get(i) != c.get(16 + i);
    EXPECT_DOUBLE_EQ(f[32 + i], p ? 1.0 : -1.0);
  }
}

TEST(Features, WordFeatures) {
  const auto f = word_features(0x1ULL);
  EXPECT_EQ(f.size(), 65u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], -1.0);
  EXPECT_DOUBLE_EQ(f.back(), 1.0);
}

// ---------------------------------------------------------------- learners

TEST(Mlp, LearnsXorOfTwoBits) {
  // The capability LR structurally lacks: y = x0 XOR x1 on +-1 features.
  Xoshiro256pp rng(3);
  std::vector<Example> data;
  for (int t = 0; t < 400; ++t) {
    const bool a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
    data.push_back(Example{
        {a ? 1.0 : -1.0, b ? 1.0 : -1.0, 1.0}, a != b});
  }
  MlpParams params;
  params.hidden_units = 8;
  params.epochs = 120;
  Mlp mlp(3, params.hidden_units, rng);
  mlp.train(data, params, rng);
  EXPECT_GT(mlp.accuracy(data), 0.95);
}

TEST(Cmaes, FitsLinearSeparator) {
  // Direct search recovers a 8-dim halfspace from logistic loss alone.
  Xoshiro256pp rng(4);
  std::vector<double> truth(8);
  for (auto& w : truth) w = rng.gaussian();
  std::vector<Example> data;
  for (int t = 0; t < 600; ++t) {
    std::vector<double> x(8);
    double dot = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      x[i] = rng.gaussian();
      dot += truth[i] * x[i];
    }
    data.push_back(Example{std::move(x), dot > 0.0});
  }
  const auto fitness = [&data](const std::vector<double>& w) {
    double loss = 0.0;
    for (const auto& ex : data) {
      double z = 0.0;
      for (std::size_t i = 0; i < w.size(); ++i) z += w[i] * ex.features[i];
      const double margin = ex.label ? z : -z;
      loss += margin > 0.0 ? std::log1p(std::exp(-margin))
                           : -margin + std::log1p(std::exp(margin));
    }
    return loss / data.size();
  };
  CmaesParams params;
  params.max_generations = 300;
  const auto result =
      cmaes_minimize(fitness, std::vector<double>(8, 0.0), params, rng);
  std::size_t correct = 0;
  for (const auto& ex : data) {
    double z = 0.0;
    for (std::size_t i = 0; i < 8; ++i) z += result.best[i] * ex.features[i];
    if ((z > 0.0) == ex.label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.95);
}

// ------------------------------------------------------- variants x attacks

AttackRunConfig small_run(std::size_t budget) {
  AttackRunConfig config;
  config.budget = budget;
  config.test_queries = 800;
  config.replay_rounds = 30;
  return config;
}

// The paper's §2/§4.1 claim, one variant at a time (bench/ml_attack runs
// the full rows).

TEST(Attack, ArbiterAccuracyGrowsWithCrps) {
  auto arbiter = make_arbiter_variant({.stages = 64, .noise_sigma = 0.02}, 12);
  Xoshiro256pp rng(6);
  const LogRegAttack lr;
  AttackRunConfig config;
  config.test_queries = 800;
  config.budget = 200;
  const auto small = lr.run(*arbiter, config, rng);
  config.budget = 4000;
  const auto large = lr.run(*arbiter, config, rng);
  EXPECT_GT(large.test_accuracy, small.test_accuracy);
}

TEST(Attack, RawAluPufBitLeaksAboveChance) {
  // Raw (pre-obfuscation) response bits are partially predictable from the
  // challenge — the reason the paper adds the obfuscation network.  Bit 8:
  // mid-chain bit with substantial carry-dependence.
  auto raw = make_alu_raw_variant({.width = 16, .bit = 8}, 21);
  Xoshiro256pp rng(7);
  AttackRunConfig config;
  config.budget = 3000;
  config.test_queries = 1000;
  EXPECT_GT(LogRegAttack().run(*raw, config, rng).test_accuracy, 0.62);
}

TEST(Attack, ObfuscatedOutputResists) {
  // After the two-phase XOR over 8 responses, LR on the protocol challenge
  // stays near coin-flip accuracy — the paper's central obfuscation claim.
  auto obfuscated = make_obfuscated_alu_variant({.width = 32, .bit = 5}, 22);
  Xoshiro256pp rng(8);
  AttackRunConfig config;
  config.budget = 1500;
  config.test_queries = 600;
  const auto result = LogRegAttack().run(*obfuscated, config, rng);
  EXPECT_LT(result.test_accuracy, 0.58);
  EXPECT_GT(result.test_accuracy, 0.42);
}

TEST(AttackMatrix, LrBreaksArbiterAndMux) {
  Xoshiro256pp rng(5);
  const LogRegAttack lr;
  auto arbiter = make_arbiter_variant({}, 21);
  const auto r1 = lr.run(*arbiter, small_run(3000), rng);
  EXPECT_GT(r1.test_accuracy, 0.93);
  EXPECT_EQ(r1.queries_used, 3000u);

  // The MUX/arbiter additive-delay baseline is the same model class in the
  // parity feature space, so LR breaks it identically.
  auto mux = make_mux_arbiter_variant({}, 22);
  const auto r2 = lr.run(*mux, small_run(3000), rng);
  EXPECT_GT(r2.test_accuracy, 0.93);
}

TEST(AttackMatrix, NlfsrFrontendDefeatsLr) {
  // Same chip, same attack, only the front end differs: the keyed NLFSR
  // destroys the parity structure LR needs.
  Xoshiro256pp rng(6);
  const LogRegAttack lr;
  auto plain = make_arbiter_variant({}, 23);
  const auto broken = lr.run(*plain, small_run(3000), rng);
  auto obfuscated = make_nlfsr_frontend(make_arbiter_variant({}, 23), 99);
  const auto resisted = lr.run(*obfuscated, small_run(3000), rng);
  EXPECT_GT(broken.test_accuracy, 0.93);
  EXPECT_LT(resisted.test_accuracy, 0.60);
  EXPECT_LT(resisted.train_accuracy, 0.70);  // not even memorizable linearly
}

TEST(AttackMatrix, LatentReconfigTrainsHighTestsLow) {
  // Within one epoch the masked composite is still an additive-delay PUF
  // (mask = sign flips in parity space), so training accuracy is high; the
  // post-budget re-key then strands the learned signs.
  Xoshiro256pp rng(7);
  const LogRegAttack lr;
  auto variant = make_latent_reconfig_frontend(make_arbiter_variant({}, 24), 77);
  const auto r = lr.run(*variant, small_run(3000), rng);
  EXPECT_GT(r.train_accuracy, 0.90);
  EXPECT_LT(r.test_accuracy, 0.60);
}

TEST(AttackMatrix, NlfsrScrambleIsDeterministicAndKeyed) {
  Xoshiro256pp rng(8);
  const auto c = BitVector::random(64, rng);
  const auto a = nlfsr_scramble(c, 5, 128);
  EXPECT_EQ(a, nlfsr_scramble(c, 5, 128));
  EXPECT_NE(a, nlfsr_scramble(c, 6, 128));  // key matters
  EXPECT_NE(a, c);
}

TEST(AttackMatrix, ReplayBreaksArbiterButNotObfuscatedPipeline) {
  Xoshiro256pp rng(9);
  const ReplayAttack replay;
  // Generic threshold verifier: an LR model of a plain arbiter predicts well
  // enough to pass authentication almost always.
  auto arbiter = make_arbiter_variant({}, 25);
  const auto pass = replay.run(*arbiter, small_run(3000), rng);
  EXPECT_GT(pass.replay_acceptance, 0.9);
  EXPECT_EQ(pass.test_accuracy, pass.replay_acceptance);

  // Full pipeline: single forged calls pass disturbingly often (per-bit
  // models err on the same low-margin bits honest noise flips, so distance
  // budgets cannot separate them), but a session of fresh nonces compounds
  // the per-call shortfall and rejects the forger.  Width 32 deliberately —
  // the carry chain of a width-16 PUF is shallow enough that LR predicts
  // references better than honest device noise, so the small variant is
  // legitimately forgeable even session-wise.
  auto pipeline = make_obfuscated_alu_variant({}, 26);
  const auto fail = replay.run(*pipeline, small_run(2000), rng);
  EXPECT_LT(fail.replay_acceptance, 0.3);
}

TEST(AttackMatrix, LeakedEnrollmentModelDefeatsAttestation) {
  // Gao'17's trust-assumption probe: with the verifier's own delay table,
  // replayed transcripts are error-free and always accepted.
  auto pipeline = make_obfuscated_alu_variant(small_alu(), 27);
  const auto* surface = pipeline->attestation_surface();
  ASSERT_NE(surface, nullptr);
  Xoshiro256pp rng(10);
  EXPECT_DOUBLE_EQ(surface->leaked_model_acceptance(25, rng), 1.0);
}

// ----------------------------------------------------- sharded CRP harvest

bool same_examples(const std::vector<Example>& a,
                   const std::vector<Example>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].features != b[i].features) {
      return false;
    }
  }
  return true;
}

TEST(ParallelCrp, AluRawInvariantAcrossThreadCounts) {
  // The determinism contract: fixed block boundaries + per-shard seeds =>
  // the dataset is a pure function of (seed, count, block), not threads.
  const auto variant = make_alu_raw_variant({.width = 16, .bit = 3}, 7);
  ParallelCrpConfig config;
  config.block = 64;
  config.seed = 5;
  config.threads = 1;
  const auto one = harvest_examples_parallel(*variant, 500, config);
  config.threads = 2;
  const auto two = harvest_examples_parallel(*variant, 500, config);
  config.threads = 8;
  const auto eight = harvest_examples_parallel(*variant, 500, config);
  ASSERT_EQ(one.size(), 500u);
  EXPECT_TRUE(same_examples(one, two));
  EXPECT_TRUE(same_examples(one, eight));
  // Sanity: labels are not degenerate.
  std::size_t ones = 0;
  for (const auto& e : one) ones += e.label ? 1 : 0;
  EXPECT_GT(ones, 50u);
  EXPECT_LT(ones, 450u);
}

TEST(ParallelCrp, SequentialDatasetsAreEngineInvariant) {
  // A harvest is one eval_batch / query_batch call; by the exactness
  // contract the variant's timing engine must never move a label byte.
  using timingsim::BatchEngine;
  const auto harvest_with = [](bool obfuscated, BatchEngine engine) {
    AluVariantParams params{.width = 16, .engine = engine};
    params.bit = obfuscated ? 3 : 4;
    const auto variant = obfuscated
                             ? make_obfuscated_alu_variant(params, 13)
                             : make_alu_raw_variant(params, 11);
    Xoshiro256pp rng(obfuscated ? 33 : 31);  // same stream per engine
    return harvest_examples(*variant, obfuscated ? 96 : 200, rng);
  };
  for (const bool obfuscated : {false, true}) {
    EXPECT_TRUE(same_examples(harvest_with(obfuscated, BatchEngine::kScalar),
                              harvest_with(obfuscated, BatchEngine::kBitslice)))
        << (obfuscated ? "obfuscated" : "raw");
  }
}

TEST(ParallelCrp, ObfuscatedInvariantAcrossThreadCounts) {
  const auto variant = make_obfuscated_alu_variant({.bit = 5}, 9);
  ParallelCrpConfig config;
  config.block = 32;
  config.seed = 12;
  config.threads = 1;
  const auto one = harvest_examples_parallel(*variant, 128, config);
  config.threads = 8;
  const auto eight = harvest_examples_parallel(*variant, 128, config);
  ASSERT_EQ(one.size(), 128u);
  EXPECT_TRUE(same_examples(one, eight));
}

// --------------------------------------------------------------- tournament

Tournament tiny_tournament(std::size_t threads,
                           timingsim::BatchEngine engine) {
  TournamentConfig config;
  config.budgets = {256, 768};
  config.run.test_queries = 400;
  config.run.replay_rounds = 10;
  config.threads = threads;
  config.seed = 42;
  config.engine = engine;
  Tournament tournament(config);
  tournament.add_variant("arbiter",
                         [](std::uint64_t chip, timingsim::BatchEngine) {
                           return make_arbiter_variant({}, chip);
                         });
  tournament.add_variant("alu-raw",
                         [](std::uint64_t chip, timingsim::BatchEngine e) {
                           AluVariantParams p = small_alu();
                           p.engine = e;
                           return make_alu_raw_variant(p, chip);
                         });
  LogRegParams lr;
  lr.epochs = 20;
  tournament.add_attack(std::make_shared<LogRegAttack>(lr));
  MlpParams mlp;
  mlp.epochs = 10;
  tournament.add_attack(std::make_shared<MlpAttack>(mlp));
  return tournament;
}

TEST(Tournament, MatrixIsThreadInvariant) {
  const auto one =
      tiny_tournament(1, timingsim::BatchEngine::kBitslice).run();
  const auto four =
      tiny_tournament(4, timingsim::BatchEngine::kBitslice).run();
  EXPECT_EQ(matrix_json(one), matrix_json(four));
  ASSERT_EQ(one.cells.size(), 4u);
  EXPECT_EQ(one.cells.front().reports.size(), 2u);
}

TEST(Tournament, MatrixIsEngineInvariant) {
  // Timing-engine choice must not move a byte of the matrix (the harvest
  // rides eval_batch, whose responses are engine-exact).
  const auto scalar =
      tiny_tournament(1, timingsim::BatchEngine::kScalar).run();
  const auto sliced =
      tiny_tournament(1, timingsim::BatchEngine::kBitslice).run();
  EXPECT_EQ(matrix_json(scalar), matrix_json(sliced));
}

TEST(Tournament, FindLocatesCells) {
  const auto result =
      tiny_tournament(1, timingsim::BatchEngine::kBitslice).run();
  ASSERT_NE(result.find("arbiter", "lr"), nullptr);
  ASSERT_NE(result.find("alu-raw", "mlp"), nullptr);
  EXPECT_EQ(result.find("arbiter", "cmaes"), nullptr);
  // The arbiter/LR cell reproduces the break inside the tournament harness.
  EXPECT_GT(result.find("arbiter", "lr")->reports.back().test_accuracy, 0.85);
}

TEST(Tournament, StandardLabRosterShape) {
  TournamentConfig config;
  Tournament tournament(config);
  add_standard_lab(tournament);
  EXPECT_EQ(tournament.variant_count(), 7u);
  EXPECT_EQ(tournament.attack_count(), 4u);
}

}  // namespace
}  // namespace pufatt::adversary
