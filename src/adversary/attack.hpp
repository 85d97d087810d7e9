// The attacker side of the tournament: an Attack spends a query budget
// against a PufVariant and reports what it learned.
//
// Model-based attacks (LR, MLP, CMA-ES) share one protocol, enforced by
// the tournament runner so every cell is measured identically:
//   1. harvest a budget-accounted training set through the variant's
//      query interface (QueryOracle),
//   2. fit a Predictor,
//   3. the variant's finish_training() fires ("time passes" — this is
//      where reconfigurable defences re-key),
//   4. held-out accuracy is measured on fresh CRPs.
// The replay attack follows the same budget discipline but its headline
// number is the replay-acceptance rate against the variant's verifier.
#pragma once

#include <memory>
#include <string>

#include "adversary/variant.hpp"

namespace pufatt::adversary {

/// What one (variant, attack, budget) cell reports.  Everything here is a
/// pure function of (variant seed, cell seed, budget) — no wall-clock, no
/// thread artifacts — so the tournament matrix is byte-stable.
struct AttackReport {
  std::size_t budget = 0;
  std::size_t queries_used = 0;   ///< training queries actually consumed
  double train_accuracy = 0.0;
  /// Held-out accuracy after finish_training(); for the replay attack this
  /// is the replay-acceptance rate (the attack's success metric).
  double test_accuracy = 0.0;
  /// Replay-acceptance rate when the cell ran authentication trials,
  /// negative otherwise.
  double replay_acceptance = -1.0;
};

/// A trained model of the variant's visible response.
class Predictor {
 public:
  virtual ~Predictor() = default;
  virtual bool predict(const std::vector<double>& features) const = 0;
};

struct AttackRunConfig {
  std::size_t budget = 0;
  std::size_t test_queries = 2000;   ///< held-out CRPs (not budget-counted)
  std::size_t replay_rounds = 40;    ///< authentication trials (replay attack)
};

class Attack {
 public:
  virtual ~Attack() = default;
  virtual std::string name() const = 0;

  /// Runs the whole attack protocol against `device`.  `device` is mutable
  /// only through finish_training() (reconfiguration); all randomness comes
  /// from `rng`.
  virtual AttackReport run(PufVariant& device, const AttackRunConfig& config,
                           support::Xoshiro256pp& rng) const = 0;
};

/// Shared protocol for attacks that fit a Predictor on harvested CRPs;
/// subclasses only implement the fitting step.
class ModelAttack : public Attack {
 public:
  AttackReport run(PufVariant& device, const AttackRunConfig& config,
                   support::Xoshiro256pp& rng) const final;

 protected:
  virtual std::unique_ptr<Predictor> fit(
      const std::vector<Example>& train,
      support::Xoshiro256pp& rng) const = 0;
};

/// Fraction of examples `model` classifies correctly.
double predictor_accuracy(const Predictor& model,
                          const std::vector<Example>& examples);

}  // namespace pufatt::adversary
