// Modeling-attack walkthrough: an adversary with temporary physical access
// collects challenge/response pairs and trains a logistic-regression model
// (Ruehrmair-style), hoping to answer future attestations in software.
// The demo shows why the paper layers an XOR obfuscation network on top of
// the raw PUF: the raw interface is learnable; the obfuscated one is not.
#include <algorithm>
#include <cstdio>

#include "adversary/attacks.hpp"
#include "core/crp_database.hpp"
#include "support/table.hpp"

using namespace pufatt;

namespace {

constexpr std::uint64_t kChip = 0xACCE55;

/// LR at `budget` queries against bits 2/15/30 of the die's `make_variant`
/// interface; prints one row per bit and returns the best attacker
/// advantage max(a, 1 - a) over the held-out accuracies a — a reliably
/// wrong model predicts the bit as well as a reliably right one.
template <typename MakeVariant>
double attack_bits(MakeVariant make_variant, std::size_t budget,
                   std::size_t test_queries, support::Xoshiro256pp& rng) {
  support::Table table({"bit", "queries", "test accuracy"});
  adversary::AttackRunConfig config;
  config.budget = budget;
  config.test_queries = test_queries;
  double best = 0.0;
  for (const std::size_t bit : {2u, 15u, 30u}) {
    auto variant = make_variant(adversary::AluVariantParams{.bit = bit}, kChip);
    const auto r = adversary::LogRegAttack().run(*variant, config, rng);
    best = std::max({best, r.test_accuracy, 1.0 - r.test_accuracy});
    table.add_row({std::to_string(bit), std::to_string(r.queries_used),
                   support::Table::num(r.test_accuracy, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  return best;
}

}  // namespace

int main() {
  std::printf("Modeling attack against the ALU PUF\n"
              "===================================\n\n");
  support::Xoshiro256pp rng(99);

  // --- Phase 1: the adversary trains on the raw response interface --------
  // (possible only with invasive access — the paper's architecture keeps
  // raw responses in registers "not visible to the outside").
  std::printf("phase 1: logistic regression on RAW response bits\n");
  const double best_raw =
      attack_bits(adversary::make_alu_raw_variant, 5000, 1000, rng);

  // --- Phase 2: the realistic attack surface: obfuscated outputs ----------
  std::printf("phase 2: the same attacker on the OBFUSCATED output z\n");
  const double best_obf =
      attack_bits(adversary::make_obfuscated_alu_variant, 2000, 500, rng);

  std::printf("best raw-bit advantage: %.1f%%   best obfuscated-bit "
              "advantage: %.1f%%\n",
              best_raw * 100.0, best_obf * 100.0);
  std::printf("-> the XOR network costs the attacker ~%.0f advantage "
              "points\n\n",
              (best_raw - best_obf) * 100.0);

  // --- Phase 3: even a perfect raw model cannot pass CRP authentication
  //     for a *different* die (unclonability at the hardware level).
  std::printf("phase 3: CRP-database authentication (paper Section 2, "
              "option 1)\n");
  alupuf::AluPufConfig config;
  config.width = 32;
  const alupuf::AluPuf genuine(config, kChip);
  const alupuf::AluPuf clone(config, 0xC10'0E);
  auto db = core::CrpDatabase::collect(genuine, 6, rng);
  int genuine_ok = 0, clone_ok = 0;
  for (int i = 0; i < 3; ++i) {
    if (db.authenticate(genuine, rng).accepted) ++genuine_ok;
    if (db.authenticate(clone, rng).accepted) ++clone_ok;
  }
  std::printf("genuine device accepted %d/3, clone accepted %d/3 "
              "(database storage: %zu bytes, %zu entries left)\n",
              genuine_ok, clone_ok, db.storage_bytes(), db.remaining());

  return best_obf < 0.6 && genuine_ok == 3 && clone_ok == 0 ? 0 : 1;
}
