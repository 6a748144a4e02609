#include "wsq/common/random.h"

#include <algorithm>
#include <cmath>

namespace wsq {

double Random::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Random::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Random::LognormalMultiplier(double sigma) {
  // Median of lognormal(mu=0, sigma) is exp(0) = 1, so the multiplier is
  // centered (in the median sense) on "no jitter".
  std::lognormal_distribution<double> dist(0.0, sigma);
  return dist(engine_);
}

bool Random::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

}  // namespace wsq
