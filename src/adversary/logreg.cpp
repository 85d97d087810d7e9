#include "adversary/logreg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pufatt::adversary {

LogisticRegression::LogisticRegression(std::size_t num_features)
    : weights_(num_features, 0.0) {
  if (num_features == 0) {
    throw std::invalid_argument("LogisticRegression: no features");
  }
}

double LogisticRegression::predict_probability(
    const std::vector<double>& features) const {
  if (features.size() != weights_.size()) {
    throw std::invalid_argument("LogisticRegression: feature size mismatch");
  }
  double z = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    z += weights_[i] * features[i];
  }
  return 1.0 / (1.0 + std::exp(-z));
}

void LogisticRegression::train(const std::vector<Example>& dataset,
                               const LogRegParams& params,
                               support::Xoshiro256pp& rng) {
  if (dataset.empty()) return;
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> velocity(weights_.size(), 0.0);
  std::vector<double> gradient(weights_.size(), 0.0);

  for (std::size_t epoch = 0; epoch < params.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic generator.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(i)]);
    }
    for (std::size_t start = 0; start < order.size();
         start += params.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + params.batch_size);
      std::fill(gradient.begin(), gradient.end(), 0.0);
      for (std::size_t k = start; k < end; ++k) {
        const Example& ex = dataset[order[k]];
        const double p = predict_probability(ex.features);
        const double err = p - (ex.label ? 1.0 : 0.0);
        for (std::size_t i = 0; i < weights_.size(); ++i) {
          gradient[i] += err * ex.features[i];
        }
      }
      const double scale = 1.0 / static_cast<double>(end - start);
      for (std::size_t i = 0; i < weights_.size(); ++i) {
        const double g = gradient[i] * scale + params.l2 * weights_[i];
        velocity[i] = params.momentum * velocity[i] - params.learning_rate * g;
        weights_[i] += velocity[i];
      }
    }
  }
}

double LogisticRegression::accuracy(const std::vector<Example>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& ex : dataset) {
    if (predict(ex.features) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

}  // namespace pufatt::adversary
