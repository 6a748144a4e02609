#ifndef WSQ_COMMON_RANDOM_H_
#define WSQ_COMMON_RANDOM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace wsq {

/// MT19937-64 (Matsumoto and Nishimura), the 64-bit Mersenne Twister whose
/// output the C++ standard fixes: the same seeding recurrence, twist and
/// tempering, so a seed yields the same 64-bit stream on every platform.
/// The twist applies the matrix A through a mask instead of a branch on
/// the low bit.
class Mt19937_64 {
 public:
  explicit Mt19937_64(uint64_t seed);

  /// The next 64-bit output.
  uint64_t operator()() {
    if (next_ == kWords) Twist();
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555;
    z ^= (z << 17) & 0x71D67FFFEDA60000;
    z ^= (z << 37) & 0xFFF7EEE000000000;
    return z ^ (z >> 43);
  }

 private:
  static constexpr size_t kWords = 312;

  /// Regenerates all kWords words of state and rewinds to the first.
  void Twist();

  uint64_t state_[kWords];
  size_t next_ = kWords;
};

/// Maps a raw 64-bit draw to [0, 1): bits * 2^-64 rounded to nearest,
/// with the rare draws that round up to 1.0 clamped to the largest double
/// below 1. This is libstdc++'s one-draw generate_canonical<double, 53>.
/// Each 32-bit half scales exactly and the one addition rounds once, so
/// this equals the unsigned conversion without its branch on the top bit.
inline double ToCanonical(uint64_t bits) {
  const double u =
      static_cast<double>(static_cast<int64_t>(bits >> 32)) * 0x1p-32 +
      static_cast<double>(static_cast<int64_t>(bits & 0xFFFFFFFF)) * 0x1p-64;
  return std::min(u, 0x1.fffffffffffffp-1);  // nextafter(1.0, 0.0)
}

/// Deterministic pseudo-random source used everywhere in the library so
/// that experiments are reproducible run-to-run. Wraps MT19937-64 and
/// exposes the handful of distributions the paper's machinery needs
/// (Gaussian dither, uniform noise, lognormal network jitter). Each
/// distribution is written here from the engine's raw output and draws
/// exactly what libstdc++ 12's std:: distribution of the same name does
/// when built fresh for each call, so the streams are defined by this
/// library rather than by the standard library.
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
  double Canonical() { return ToCanonical(engine_()); }

  /// One N(0, 1) draw by Marsaglia's polar method. The method makes a
  /// pair; like a fresh libstdc++ normal distribution, this returns the
  /// second coordinate and discards the first.
  double StandardNormal();

  Mt19937_64 engine_;
};

}  // namespace wsq

#endif  // WSQ_COMMON_RANDOM_H_
