#ifndef WSQ_COMMON_RANDOM_H_
#define WSQ_COMMON_RANDOM_H_

#include <cstdint>
#include <random>

namespace wsq {

/// Deterministic pseudo-random source used everywhere in the library so
/// that experiments are reproducible run-to-run. Wraps a Mersenne Twister
/// and exposes the handful of distributions the paper's machinery needs
/// (Gaussian dither, uniform noise, lognormal network jitter).
///
/// Not thread-safe; give each simulated entity its own instance.
class Random {
 public:
  explicit Random(uint64_t seed) : engine_(seed) {}

  /// Draws from N(mean, stddev). Used for the dither signal d(k) = df*w(k)
  /// where w ~ N(0, 1) (paper Section III-A).
  double Gaussian(double mean, double stddev);

  /// Draws uniformly from [lo, hi).
  double Uniform(double lo, double hi);

  /// Draws uniformly from {lo, ..., hi} inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Draws from a lognormal such that the median multiplier is 1.0 and
  /// `sigma` controls the spread; models network jitter multipliers.
  double LognormalMultiplier(double sigma);

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

 private:
  std::mt19937_64 engine_;
};

}  // namespace wsq

#endif  // WSQ_COMMON_RANDOM_H_
