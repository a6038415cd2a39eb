#include "util/rng.hpp"

#include <algorithm>

namespace pmware {

Rng Rng::fork(std::uint64_t salt) {
  const std::uint64_t base = engine_();
  return Rng(splitmix64(base ^ splitmix64(salt)));
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double sigma) {
  if (sigma < 0) throw std::invalid_argument("Rng::normal: sigma < 0");
  if (sigma == 0) return mean;
  std::normal_distribution<double> dist(mean, sigma);
  return dist(engine_);
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("Rng::exponential: mean <= 0");
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(clamped);
  return dist(engine_);
}

int Rng::poisson(double mean) {
  if (mean < 0) throw std::invalid_argument("Rng::poisson: mean < 0");
  if (mean == 0) return 0;
  std::poisson_distribution<int> dist(mean);
  return dist(engine_);
}

std::size_t Rng::index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::index: size == 0");
  std::uniform_int_distribution<std::size_t> dist(0, size - 1);
  return dist(engine_);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("Rng::weighted_index: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("Rng::weighted_index: no positive weight");
  double target = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace pmware
