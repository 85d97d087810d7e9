// The four attack columns of the matrix.
//
//  * LR      — logistic regression on the variant's feature map (Ruehrmair
//              CCS'10), adapting LogisticRegression (adversary/logreg.hpp).
//  * MLP     — one-hidden-layer perceptron (src/adversary/mlp.hpp); can
//              express the XOR of a few halfspaces where LR cannot.
//  * CMA-ES  — separable CMA-ES direct search over a linear additive-delay
//              model in feature space (gradient-free; the evolution-strategy
//              track of the original modeling-attack papers).
//  * Replay  — Gao'17 model-assisted error-free-response replay
//              (arXiv:1701.08241).  Against variants exposing an
//              AttestationSurface it harvests raw CRPs, trains per-bit
//              models, forges full transcripts and is judged by the real
//              verifier; against plain variants it runs a generic
//              threshold-verifier authentication loop.  Its headline number
//              is the replay-acceptance rate.
#pragma once

#include "adversary/attack.hpp"
#include "adversary/cmaes.hpp"
#include "adversary/mlp.hpp"

namespace pufatt::adversary {

class LogRegAttack final : public ModelAttack {
 public:
  explicit LogRegAttack(const LogRegParams& params = {})
      : params_(params) {}
  std::string name() const override { return "lr"; }

 protected:
  std::unique_ptr<Predictor> fit(const std::vector<Example>& train,
                                 support::Xoshiro256pp& rng) const override;

 private:
  LogRegParams params_;
};

class MlpAttack final : public ModelAttack {
 public:
  explicit MlpAttack(const MlpParams& params = {}) : params_(params) {}
  std::string name() const override { return "mlp"; }

 protected:
  std::unique_ptr<Predictor> fit(const std::vector<Example>& train,
                                 support::Xoshiro256pp& rng) const override;

 private:
  MlpParams params_;
};

class CmaesAttack final : public ModelAttack {
 public:
  struct Params {
    CmaesParams cmaes;
    /// Fitness evaluations subsample the training set to this many examples
    /// (logistic loss; full-set evaluation would dominate the cell's cost).
    std::size_t fitness_subsample = 8000;
  };
  CmaesAttack() = default;
  explicit CmaesAttack(const Params& params) : params_(params) {}
  std::string name() const override { return "cmaes"; }

 protected:
  std::unique_ptr<Predictor> fit(const std::vector<Example>& train,
                                 support::Xoshiro256pp& rng) const override;

 private:
  Params params_;
};

class ReplayAttack final : public Attack {
 public:
  explicit ReplayAttack(const LogRegParams& params = {})
      : params_(params) {}
  std::string name() const override { return "replay"; }

  AttackReport run(PufVariant& device, const AttackRunConfig& config,
                   support::Xoshiro256pp& rng) const override;

 private:
  LogRegParams params_;
};

}  // namespace pufatt::adversary
