#include "wsq/linalg/rls.h"

#include <algorithm>
#include <cmath>

namespace wsq {

RecursiveLeastSquares::RecursiveLeastSquares(size_t num_params,
                                             double forgetting,
                                             double initial_covariance)
    : forgetting_(std::clamp(forgetting, 1e-3, 1.0)),
      initial_covariance_(initial_covariance),
      theta_(num_params, 0.0),
      p_(Matrix::Identity(num_params).Scaled(initial_covariance)) {}

Status RecursiveLeastSquares::Update(const std::vector<double>& phi,
                                     double y) {
  const size_t p = theta_.size();
  if (phi.size() != p) {
    return Status::InvalidArgument("RLS: regressor arity mismatch");
  }

  // P phi
  std::vector<double> p_phi(p, 0.0);
  for (size_t r = 0; r < p; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < p; ++c) sum += p_.At(r, c) * phi[c];
    p_phi[r] = sum;
  }

  // denom = lambda + phi^T P phi
  double denom = forgetting_;
  for (size_t i = 0; i < p; ++i) denom += phi[i] * p_phi[i];
  if (denom <= 0.0 || !std::isfinite(denom)) {
    return Status::Internal("RLS: covariance degenerated");
  }

  // Gain k = P phi / denom; innovation e = y - phi^T theta.
  double predicted = 0.0;
  for (size_t i = 0; i < p; ++i) predicted += phi[i] * theta_[i];
  const double innovation = y - predicted;

  for (size_t i = 0; i < p; ++i) {
    theta_[i] += (p_phi[i] / denom) * innovation;
  }

  // P = (P - k phi^T P) / lambda, with k phi^T P = (P phi)(P phi)^T / denom
  // because P is symmetric.
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = 0; c < p; ++c) {
      p_.At(r, c) = (p_.At(r, c) - p_phi[r] * p_phi[c] / denom) / forgetting_;
    }
  }
  ++num_updates_;
  return Status::Ok();
}

double RecursiveLeastSquares::CovarianceTrace() const {
  double trace = 0.0;
  for (size_t i = 0; i < theta_.size(); ++i) trace += p_.At(i, i);
  return trace;
}

void RecursiveLeastSquares::Reset() {
  std::fill(theta_.begin(), theta_.end(), 0.0);
  p_ = Matrix::Identity(theta_.size()).Scaled(initial_covariance_);
  num_updates_ = 0;
}

}  // namespace wsq
