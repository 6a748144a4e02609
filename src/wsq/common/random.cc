#include "wsq/common/random.h"

#include <algorithm>
#include <cmath>

namespace wsq {
namespace {

__extension__ using Uint128 = unsigned __int128;

constexpr size_t kShift = 156;  // the recurrence's middle offset m
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper 33 bits of `word` joined to the lower 31 of
/// `next`, multiplied by A and xored onto `far`. `0 - (y & 1)` is all
/// ones exactly when the low bit is set, so A applies without a branch.
inline uint64_t TwistWord(uint64_t word, uint64_t next, uint64_t far) {
  const uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

/// A draw from [0, span) by Lemire's nearly-divisionless method: the high
/// word of draw * span, redrawing while the low word falls in the biased
/// sliver below 2^64 mod span. The division runs only when the low word
/// is small.
uint64_t DrawBelow(Mt19937_64& engine, uint64_t span) {
  Uint128 product = Uint128{engine()} * span;
  uint64_t low = static_cast<uint64_t>(product);
  if (low < span) {
    const uint64_t threshold = (0 - span) % span;
    while (low < threshold) {
      product = Uint128{engine()} * span;
      low = static_cast<uint64_t>(product);
    }
  }
  return static_cast<uint64_t>(product >> 64);
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005 * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  size_t k = 0;
  for (; k < kWords - kShift; ++k) {
    state_[k] = TwistWord(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kWords - 1; ++k) {
    state_[k] =
        TwistWord(state_[k], state_[k + 1], state_[k + kShift - kWords]);
  }
  state_[kWords - 1] =
      TwistWord(state_[kWords - 1], state_[0], state_[kShift - 1]);
  next_ = 0;
}

double Random::StandardNormal() {
  for (;;) {
    const double x = 2.0 * Canonical() - 1.0;
    const double y = 2.0 * Canonical() - 1.0;
    const double r2 = x * x + y * y;
    if (r2 <= 1.0 && r2 != 0.0) {
      return y * std::sqrt(-2.0 * std::log(r2) / r2);
    }
  }
}

double Random::Gaussian(double mean, double stddev) {
  return StandardNormal() * stddev + mean;
}

double Random::Uniform(double lo, double hi) {
  return Canonical() * (hi - lo) + lo;
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  // Over the full int64 range every draw is in range.
  const uint64_t offset =
      range == ~uint64_t{0} ? engine_() : DrawBelow(engine_, range + 1);
  return static_cast<int64_t>(offset + static_cast<uint64_t>(lo));
}

double Random::LognormalMultiplier(double sigma) {
  // Median of lognormal(mu=0, sigma) is exp(0) = 1, so the multiplier is
  // centered (in the median sense) on "no jitter". libstdc++ also adds
  // mu = 0 twice, which can only turn a -0.0 argument into +0.0.
  return std::exp(sigma * StandardNormal());
}

bool Random::Bernoulli(double p) {
  return Canonical() < std::clamp(p, 0.0, 1.0);
}

}  // namespace wsq
