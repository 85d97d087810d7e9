// Adversary-lab attack matrix: every PufVariant row against every Attack
// column at increasing query budgets, run by the deterministic tournament
// (src/adversary/tournament.hpp).
//
// The matrix is the regression surface for the paper's security claims,
// gated on three facts:
//   1. LR breaks the plain Arbiter PUF (test accuracy >= 0.95 at the max
//      budget — the Ruehrmair break the paper cites as motivation);
//   2. no learning attack reaches an advantage above 0.60 against the
//      obfuscated ALU pipeline at the max budget (the paper's
//      response-obfuscation claim), and the replay column's session
//      acceptance — several fresh verifier nonces, all of which the forged
//      transcripts must pass, against the real verifier — stays <= 0.60;
//   3. the keyed-NLFSR front end holds LR's advantage on the same arbiter
//      chip to <= 0.60 (challenge obfuscation as an independent defence
//      axis).
// Advantage is max(a, 1 - a) for held-out accuracy a: a model that is
// reliably wrong is as useful to an attacker as one that is reliably
// right (invert its output), so raw accuracy alone would call an
// anti-correlated model "resisting".  The JSON reports raw accuracy next
// to every advantage.
// The Gao'17 leaked-enrollment-model probe is reported alongside but NOT
// gated — it measures a trust assumption (H must stay secret), not an
// attack the design claims to stop.
//
// Determinism claims checked every run: the matrix JSON is byte-identical
// across two runs at different thread counts, and a reduced ALU-backed
// sub-matrix is byte-identical across the scalar and bit-sliced timing
// engines (CRP harvesting rides eval_batch, so the exactness contract
// must hold end to end).
//
// Results go to stdout and BENCH_attack_matrix.json.  `--quick` shrinks
// budgets and training so the whole matrix fits in CI across sanitizer
// trees, with relaxed accuracy gates (small budgets legitimately learn
// less); the full run backs the acceptance numbers above.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "adversary/tournament.hpp"
#include "support/table.hpp"

using namespace pufatt;
using namespace pufatt::adversary;

namespace {

struct Gate {
  std::string name;
  const char* metric = "accuracy";  ///< accuracy / advantage / acceptance
  double value = 0.0;               ///< the gated quantity
  double accuracy = 0.0;            ///< raw held-out accuracy (or acceptance)
  double bound = 0.0;
  bool upper = false;  ///< true: value must be <= bound
  bool pass() const { return upper ? value <= bound : value >= bound; }
};

/// Attacker advantage of held-out accuracy `a`: max(a, 1 - a).
Gate advantage_gate(std::string name, double a, double bound) {
  return Gate{std::move(name), "advantage", std::max(a, 1.0 - a), a, bound,
              /*upper=*/true};
}

TournamentResult run_matrix(bool quick, std::size_t threads) {
  MatrixPreset preset = matrix_preset(quick);
  preset.config.threads = threads;
  Tournament tournament(preset.config);
  add_standard_lab(tournament, preset.lab);
  return tournament.run();
}

/// Reduced ALU-backed sub-matrix under an explicit engine: the part of the
/// lab where the timing kernel choice exists at all.
std::string engine_submatrix_json(bool quick, timingsim::BatchEngine engine) {
  const MatrixPreset preset = matrix_preset(quick);
  TournamentConfig config = preset.config;
  config.budgets = {config.budgets.front()};
  config.engine = engine;
  Tournament tournament(config);
  const AluVariantParams alu;  // width 32, bit 16
  tournament.add_variant(
      "alu-raw", [alu](std::uint64_t chip, timingsim::BatchEngine e) {
        AluVariantParams p = alu;
        p.engine = e;
        return make_alu_raw_variant(p, chip);
      });
  tournament.add_variant(
      "alu-obf", [alu](std::uint64_t chip, timingsim::BatchEngine e) {
        AluVariantParams p = alu;
        p.engine = e;
        return make_obfuscated_alu_variant(p, chip);
      });
  tournament.add_attack(std::make_shared<LogRegAttack>(preset.lab.logreg));
  return matrix_json(tournament.run());
}

void write_json(const char* path, bool quick, const std::string& matrix,
                const std::vector<Gate>& gates, bool stable,
                bool engine_invariant, double leaked_acceptance) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"attack_matrix\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f, "  \"byte_stable_across_runs\": %s,\n",
               stable ? "true" : "false");
  std::fprintf(f, "  \"engine_invariant\": %s,\n",
               engine_invariant ? "true" : "false");
  std::fprintf(f, "  \"leaked_model_acceptance\": %.6f,\n", leaked_acceptance);
  std::fprintf(f, "  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"metric\": \"%s\", "
                 "\"value\": %.6f, \"accuracy\": %.6f, \"bound\": %.6f, "
                 "\"op\": \"%s\", \"pass\": %s}%s\n",
                 g.name.c_str(), g.metric, g.value, g.accuracy, g.bound,
                 g.upper ? "<=" : ">=",
                 g.pass() ? "true" : "false",
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // The byte-stable matrix itself (already JSON; indentation differs from
  // the envelope but parsers do not care).
  std::fprintf(f, "  \"matrix\": %s", matrix.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0 ||
        std::strcmp(argv[i], "--smoke") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 64;
    }
  }
  std::printf("=== Adversary lab: %s attack matrix ===\n\n",
              quick ? "quick" : "full");

  // Determinism claim 1: two runs, different thread counts, same bytes.
  const auto result = run_matrix(quick, /*threads=*/1);
  const std::string json = matrix_json(result);
  const std::string json_rerun = matrix_json(run_matrix(quick, /*threads=*/4));
  const bool stable = json == json_rerun;

  // Determinism claim 2: the timing kernel never moves a matrix byte.
  const auto scalar =
      engine_submatrix_json(quick, timingsim::BatchEngine::kScalar);
  const bool engine_invariant =
      scalar == engine_submatrix_json(quick, timingsim::BatchEngine::kBitslice);

  // Trust-assumption probe (reported, not gated): an attacker holding the
  // verifier's enrollment model forges error-free transcripts.
  double leaked_acceptance = 0.0;
  {
    const auto pipeline = make_obfuscated_alu_variant(
        {}, support::SplitMix64::mix(result.config.seed ^ 0xC41B2E8D5F07A696ULL));
    support::Xoshiro256pp rng(result.config.seed);
    leaked_acceptance =
        pipeline->attestation_surface()->leaked_model_acceptance(20, rng);
  }

  // ---- stdout report -------------------------------------------------------
  support::Table table({"variant", "attack", "budget", "queries", "train acc",
                        "test acc / replay"});
  for (const Cell& cell : result.cells) {
    const AttackReport& r = cell.reports.back();
    table.add_row({cell.variant, cell.attack, std::to_string(r.budget),
                   std::to_string(r.queries_used),
                   support::Table::num(r.train_accuracy, 3),
                   support::Table::num(r.test_accuracy, 3) +
                       (r.replay_acceptance >= 0.0 ? " (replay)" : "")});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("leaked enrollment model H -> replay acceptance %.2f "
              "(trust assumption, not gated)\n\n",
              leaked_acceptance);

  // ---- gates ---------------------------------------------------------------
  const double resist_bound = quick ? 0.68 : 0.60;
  std::vector<Gate> gates;
  const double lr_arbiter =
      result.find("arbiter", "lr")->reports.back().test_accuracy;
  gates.push_back(Gate{"lr_breaks_arbiter", "accuracy", lr_arbiter,
                       lr_arbiter, quick ? 0.80 : 0.95, /*upper=*/false});
  for (const char* attack : {"lr", "mlp", "cmaes"}) {
    gates.push_back(advantage_gate(
        std::string("obfuscated_resists_") + attack,
        result.find("alu-obf", attack)->reports.back().test_accuracy,
        resist_bound));
  }
  const double replay =
      result.find("alu-obf", "replay")->reports.back().test_accuracy;
  gates.push_back(Gate{"obfuscated_resists_replay", "acceptance", replay,
                       replay, resist_bound, /*upper=*/true});
  gates.push_back(advantage_gate(
      "nlfsr_degrades_lr",
      result.find("nlfsr-arbiter", "lr")->reports.back().test_accuracy,
      resist_bound));

  bool ok = stable && engine_invariant;
  for (const Gate& g : gates) {
    std::printf("gate %-26s %-10s %.3f %s %.2f  %s  (raw %.3f)\n",
                g.name.c_str(), g.metric, g.value, g.upper ? "<=" : ">=",
                g.bound, g.pass() ? "PASS" : "FAIL", g.accuracy);
    ok = ok && g.pass();
  }
  std::printf("byte-stable across runs: %s | engine-invariant: %s\n",
              stable ? "yes" : "NO", engine_invariant ? "yes" : "NO");

  write_json("BENCH_attack_matrix.json", quick, json, gates, stable,
             engine_invariant, leaked_acceptance);
  return ok ? 0 : 1;
}
