#pragma once
/// \file rng.hpp
/// Deterministic, explicitly-seeded random number generation.
///
/// Every stochastic component in kertbn takes an Rng by reference so that
/// experiments are exactly reproducible from a single seed.  The generator is
/// xoshiro256** (Blackman & Vigna) seeded through splitmix64 — fast,
/// high-quality, and tiny enough to embed per-agent in the decentralized
/// learning fabric without false sharing concerns.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace kertbn {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to <random> distributions if desired.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from \p seed; identical seeds replay identical
  /// streams.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Fills \p out with uniform doubles in [0, 1): the same stream, in the
  /// same order, as out.size() successive uniform() calls.
  void fill_uniform(std::span<double> out);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw (Box-Muller with caching).
  double normal();

  /// Normal draw with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential draw with the given rate (> 0).
  double exponential(double rate);

  /// Log-normal draw: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma);

  /// Gamma draw with shape k > 0 and scale theta > 0
  /// (Marsaglia-Tsang for k >= 1, boosted for k < 1).
  double gamma(double shape, double scale);

  /// Pareto (type I) draw with scale xm > 0 and tail index alpha > 0.
  double pareto(double xm, double alpha);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Samples an index according to the (not necessarily normalized)
  /// non-negative weights. Precondition: at least one weight > 0.
  std::size_t categorical(const std::vector<double>& weights);

  /// Derives an independent child generator (for per-agent streams).
  Rng split();

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A uniformly random permutation of 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace kertbn
