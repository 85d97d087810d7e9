// Machine-learning modeling attack study (paper Section 2 "Response
// Obfuscation" and Section 4.1 "Side-channel Attack Resiliency"):
// logistic regression (Ruehrmair-style) at growing CRP budgets against
//   1. the plain Arbiter PUF (the textbook break),
//   2. k-XOR arbiters, k = 2/4/8 (the mechanism behind the obfuscation
//      network: linear models cannot express the XOR of k halfspaces),
//   3. raw ALU PUF response bits 4/16/28 (partially learnable),
//   4. obfuscated pipeline output bits 3/17 (should collapse to ~50%).
// It is one slice of the adversary-lab tournament (src/adversary): the rows
// are PufVariants (each its own die, seeded by the tournament), the only
// column is LogRegAttack.  Exit 1 unless the paper's shape holds at the
// largest budget: arbiter >= 0.95, every XOR and obfuscated row within
// 0.42-0.58, every raw ALU bit above 0.62.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "adversary/tournament.hpp"
#include "support/table.hpp"

using namespace pufatt;
using namespace pufatt::adversary;

namespace {

enum class Row { kArbiter, kXor, kAluRaw, kObfuscated };

struct RowSpec {
  std::string id;
  Row kind;
  std::size_t param;  ///< k for XOR rows, the attacked bit for ALU rows
};

/// Table verdict for a row's held-out accuracy `a`.
const char* verdict(Row kind, double a) {
  switch (kind) {
    case Row::kArbiter:
      return a > 0.9 ? "BROKEN" : "resists";
    case Row::kXor:
      return a > 0.9 ? "BROKEN" : a > 0.58 ? "leaks partially" : "resists";
    case Row::kAluRaw:
      return a > 0.75 ? "LEAKS" : a > 0.55 ? "leaks partially" : "resists";
    case Row::kObfuscated:
      return a < 0.58 ? "resists (paper claim)" : "UNEXPECTED LEAK";
  }
  return "";
}

bool shape_holds(Row kind, double a) {
  switch (kind) {
    case Row::kArbiter:
      return a >= 0.95;
    case Row::kXor:
    case Row::kObfuscated:
      return a >= 0.42 && a <= 0.58;
    case Row::kAluRaw:
      return a > 0.62;
  }
  return false;
}

}  // namespace

int main() {
  std::printf("=== Modeling attack: logistic regression on CRPs ===\n\n");

  const std::vector<RowSpec> rows = {
      {"Arbiter PUF", Row::kArbiter, 0},
      {"XOR-Arbiter k=2", Row::kXor, 2},
      {"XOR-Arbiter k=4", Row::kXor, 4},
      {"XOR-Arbiter k=8", Row::kXor, 8},
      {"ALU PUF raw bit 4", Row::kAluRaw, 4},
      {"ALU PUF raw bit 16", Row::kAluRaw, 16},
      {"ALU PUF raw bit 28", Row::kAluRaw, 28},
      {"obfuscated z bit 3", Row::kObfuscated, 3},
      {"obfuscated z bit 17", Row::kObfuscated, 17},
  };

  TournamentConfig config;
  config.budgets = {250, 1000, 4000, 16000};
  config.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  config.seed = 0x31337;
  Tournament tournament(config);
  for (const RowSpec& row : rows) {
    tournament.add_variant(
        row.id,
        [row](std::uint64_t chip, timingsim::BatchEngine engine)
            -> std::unique_ptr<PufVariant> {
          const AluVariantParams alu{.bit = row.param, .engine = engine};
          switch (row.kind) {
            case Row::kArbiter:
              return make_arbiter_variant({}, chip);
            case Row::kXor:
              return make_xor_arbiter_variant(row.param, {}, chip);
            case Row::kAluRaw:
              return make_alu_raw_variant(alu, chip);
            case Row::kObfuscated:
              return make_obfuscated_alu_variant(alu, chip);
          }
          return nullptr;
        });
  }
  tournament.add_attack(std::make_shared<LogRegAttack>());
  const TournamentResult result = tournament.run();

  support::Table table(
      {"target", "queries", "train acc", "test acc", "verdict"});
  bool shape = true;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& reports = result.cells[r].reports;
    for (const AttackReport& report : reports) {
      table.add_row({rows[r].id, std::to_string(report.queries_used),
                     support::Table::num(report.train_accuracy, 3),
                     support::Table::num(report.test_accuracy, 3),
                     verdict(rows[r].kind, report.test_accuracy)});
    }
    shape = shape && shape_holds(rows[r].kind, reports.back().test_accuracy);
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "paper claim reproduced when, at %zu CRPs: arbiter test acc >= 0.95,\n"
      "k-XOR (k >= 2) and obfuscated bits within 0.42-0.58, raw ALU bits "
      "above 0.62: %s\n",
      config.budgets.back(), shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
