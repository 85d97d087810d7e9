// From-scratch multi-layer perceptron: one tanh hidden layer, sigmoid
// output, mini-batch SGD with momentum.  Unlike logistic regression this
// learner can express the XOR of a few halfspaces, which is exactly the
// gap the k-XOR Arbiter row of the attack matrix probes.  Fully
// deterministic given (dataset order, rng).
#pragma once

#include <cstddef>
#include <vector>

#include "adversary/logreg.hpp"
#include "support/rng.hpp"

namespace pufatt::adversary {

struct MlpParams {
  std::size_t hidden_units = 24;
  double learning_rate = 0.05;
  double momentum = 0.9;
  double l2 = 1e-5;
  std::size_t epochs = 40;
  std::size_t batch_size = 32;
};

class Mlp {
 public:
  /// Weights initialized to small gaussians drawn from `rng`.
  Mlp(std::size_t num_features, std::size_t hidden_units,
      support::Xoshiro256pp& rng);

  /// P(label = 1 | features).
  double predict_probability(const std::vector<double>& features) const;
  bool predict(const std::vector<double>& features) const {
    return predict_probability(features) > 0.5;
  }

  /// Trains on the dataset (shuffled each epoch with `rng`).
  void train(const std::vector<Example>& dataset,
             const MlpParams& params, support::Xoshiro256pp& rng);

  /// Fraction of correct predictions on a dataset.
  double accuracy(const std::vector<Example>& dataset) const;

 private:
  std::size_t num_features_;
  std::size_t hidden_;
  // Hidden layer: hidden_ rows of num_features_ weights plus a bias each;
  // output layer: hidden_ weights plus a bias.
  std::vector<double> w1_;  // hidden_ * num_features_
  std::vector<double> b1_;  // hidden_
  std::vector<double> w2_;  // hidden_
  double b2_ = 0.0;
};

}  // namespace pufatt::adversary
