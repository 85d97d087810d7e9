#include "adversary/mlp.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pufatt::adversary {

namespace {

double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Mlp::Mlp(std::size_t num_features, std::size_t hidden_units,
         support::Xoshiro256pp& rng)
    : num_features_(num_features), hidden_(hidden_units) {
  if (num_features_ == 0 || hidden_ == 0) {
    throw std::invalid_argument("Mlp: zero-sized layer");
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(num_features_));
  w1_.resize(hidden_ * num_features_);
  for (double& w : w1_) w = rng.gaussian(0.0, scale);
  b1_.assign(hidden_, 0.0);
  w2_.resize(hidden_);
  const double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden_));
  for (double& w : w2_) w = rng.gaussian(0.0, scale2);
  b2_ = 0.0;
}

double Mlp::predict_probability(const std::vector<double>& features) const {
  if (features.size() != num_features_) {
    throw std::invalid_argument("Mlp: feature width mismatch");
  }
  double out = b2_;
  for (std::size_t h = 0; h < hidden_; ++h) {
    const double* row = &w1_[h * num_features_];
    double z = b1_[h];
    for (std::size_t j = 0; j < num_features_; ++j) z += row[j] * features[j];
    out += w2_[h] * std::tanh(z);
  }
  return sigmoid(out);
}

void Mlp::train(const std::vector<Example>& dataset,
                const MlpParams& params, support::Xoshiro256pp& rng) {
  if (dataset.empty()) return;
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Momentum buffers mirror the parameter layout.
  std::vector<double> vw1(w1_.size(), 0.0), vb1(hidden_, 0.0),
      vw2(hidden_, 0.0);
  double vb2 = 0.0;
  // Per-batch gradient accumulators.
  std::vector<double> gw1(w1_.size()), gb1(hidden_), gw2(hidden_);
  std::vector<double> act(hidden_);

  const std::size_t batch = std::max<std::size_t>(1, params.batch_size);
  for (std::size_t epoch = 0; epoch < params.epochs; ++epoch) {
    // Fisher-Yates shuffle with the caller's deterministic stream.
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = rng.next() % i;
      std::swap(order[i - 1], order[j]);
    }
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t end = std::min(order.size(), start + batch);
      std::fill(gw1.begin(), gw1.end(), 0.0);
      std::fill(gb1.begin(), gb1.end(), 0.0);
      std::fill(gw2.begin(), gw2.end(), 0.0);
      double gb2 = 0.0;
      for (std::size_t k = start; k < end; ++k) {
        const Example& ex = dataset[order[k]];
        double out = b2_;
        for (std::size_t h = 0; h < hidden_; ++h) {
          const double* row = &w1_[h * num_features_];
          double z = b1_[h];
          for (std::size_t j = 0; j < num_features_; ++j) {
            z += row[j] * ex.features[j];
          }
          act[h] = std::tanh(z);
          out += w2_[h] * act[h];
        }
        // d(logloss)/d(out) for a sigmoid output.
        const double delta = sigmoid(out) - (ex.label ? 1.0 : 0.0);
        gb2 += delta;
        for (std::size_t h = 0; h < hidden_; ++h) {
          gw2[h] += delta * act[h];
          const double dh = delta * w2_[h] * (1.0 - act[h] * act[h]);
          gb1[h] += dh;
          double* grow = &gw1[h * num_features_];
          for (std::size_t j = 0; j < num_features_; ++j) {
            grow[j] += dh * ex.features[j];
          }
        }
      }
      const double inv = 1.0 / static_cast<double>(end - start);
      const double lr = params.learning_rate;
      for (std::size_t i = 0; i < w1_.size(); ++i) {
        vw1[i] = params.momentum * vw1[i] -
                 lr * (gw1[i] * inv + params.l2 * w1_[i]);
        w1_[i] += vw1[i];
      }
      for (std::size_t h = 0; h < hidden_; ++h) {
        vb1[h] = params.momentum * vb1[h] - lr * gb1[h] * inv;
        b1_[h] += vb1[h];
        vw2[h] = params.momentum * vw2[h] -
                 lr * (gw2[h] * inv + params.l2 * w2_[h]);
        w2_[h] += vw2[h];
      }
      vb2 = params.momentum * vb2 - lr * gb2 * inv;
      b2_ += vb2;
    }
  }
}

double Mlp::accuracy(const std::vector<Example>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& ex : dataset) {
    if (predict(ex.features) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / dataset.size();
}

}  // namespace pufatt::adversary
