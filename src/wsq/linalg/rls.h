#ifndef WSQ_LINALG_RLS_H_
#define WSQ_LINALG_RLS_H_

#include <vector>

#include "wsq/common/status.h"
#include "wsq/linalg/matrix.h"

namespace wsq {

/// Recursive least squares with exponential forgetting — the self-tuning
/// extension Section IV of the paper flags for "significantly larger
/// queries". Maintains parameter estimates theta and covariance P with
/// the classic update:
///
///   k   = P phi / (lambda + phi^T P phi)
///   theta += k (y - phi^T theta)
///   P   = (P - k phi^T P) / lambda
///
/// where phi is the regressor vector for one observation and lambda in
/// (0, 1] the forgetting factor (1 = ordinary recursive LS; smaller values
/// track drifting optima faster at the cost of noise sensitivity).
class RecursiveLeastSquares {
 public:
  /// `num_params` regressors; `initial_covariance` scales the identity
  /// prior on P (large values mean "know nothing"). `forgetting` must be
  /// in (0, 1].
  RecursiveLeastSquares(size_t num_params, double forgetting,
                        double initial_covariance = 1e6);

  /// Folds one observation (phi, y) into the estimate. Returns
  /// kInvalidArgument when phi has the wrong arity.
  Status Update(const std::vector<double>& phi, double y);

  /// Current estimate; zeros before any update.
  const std::vector<double>& params() const { return theta_; }

  size_t num_params() const { return theta_.size(); }
  size_t num_updates() const { return num_updates_; }
  double forgetting() const { return forgetting_; }

  /// trace(P) — the scalar health check on the covariance: large means
  /// "estimate still uncertain", collapse toward 0 means the forgetting
  /// factor has frozen the filter. Sampled into controller DebugState().
  double CovarianceTrace() const;

  /// Resets to the know-nothing prior, keeping dimensions and lambda.
  void Reset();

 private:
  double forgetting_;
  double initial_covariance_;
  std::vector<double> theta_;
  Matrix p_;
  size_t num_updates_ = 0;
};

}  // namespace wsq

#endif  // WSQ_LINALG_RLS_H_
