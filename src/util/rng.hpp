// Deterministic random-number utilities.
//
// Every stochastic component in PMWare takes an explicit Rng so that whole
// deployment studies replay bit-for-bit from a single seed (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace pmware {

/// Seeded pseudo-random generator wrapping std::mt19937_64 with the
/// distribution helpers used across the simulator.
class Rng {
 public:
  /// Constructs a generator from an explicit seed. The same seed always
  /// yields the same stream.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// SplitMix64 finalizer: a fixed, platform-independent 64-bit mix. Fork
  /// salts, fault-plan rolls, shard placement and GSM fading hash with it.
  static std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Derives an independent child generator; `salt` distinguishes siblings
  /// derived from the same parent (e.g. one child per participant).
  Rng fork(std::uint64_t salt);

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal variate with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Poisson variate with the given mean (>= 0).
  int poisson(double mean);

  /// Uniformly chosen index into a container of `size` elements (size > 0).
  std::size_t index(std::size_t size);

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[index(items.size())];
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Index chosen with probability proportional to `weights[i]`.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pmware
