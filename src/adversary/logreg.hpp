// Logistic regression trained by mini-batch SGD with momentum — the
// standard machine-learning modeling attack on delay PUFs (Ruehrmair et
// al., CCS 2010 — the paper's reference [27]).  The classic Arbiter PUF is
// exactly linear in its parity features, so LR recovers it from a few
// thousand CRPs; the experiment suite uses this attacker against the raw
// and obfuscated ALU PUF to reproduce the paper's response-obfuscation
// claim.
#pragma once

#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace pufatt::adversary {

struct LogRegParams {
  double learning_rate = 0.05;
  double momentum = 0.9;
  double l2 = 1e-5;
  std::size_t epochs = 60;
  std::size_t batch_size = 32;
};

/// One training example: real-valued features and a binary label.
struct Example {
  std::vector<double> features;
  bool label = false;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(std::size_t num_features);

  /// P(label = 1 | features).
  double predict_probability(const std::vector<double>& features) const;
  bool predict(const std::vector<double>& features) const {
    return predict_probability(features) > 0.5;
  }

  /// Trains on the dataset (shuffled each epoch with `rng`).
  void train(const std::vector<Example>& dataset, const LogRegParams& params,
             support::Xoshiro256pp& rng);

  /// Fraction of correct predictions on a dataset.
  double accuracy(const std::vector<Example>& dataset) const;

  const std::vector<double>& weights() const { return weights_; }

 private:
  /// One weight per feature; callers include a constant feature for bias.
  std::vector<double> weights_;
};

}  // namespace pufatt::adversary
