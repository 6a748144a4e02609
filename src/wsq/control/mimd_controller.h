#ifndef WSQ_CONTROL_MIMD_CONTROLLER_H_
#define WSQ_CONTROL_MIMD_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/control/controller.h"
#include "wsq/stats/moving_window.h"

namespace wsq {

/// Parameters of the multiplicative controller. Defaults match the scale
/// of the paper's WAN experiments.
struct MimdConfig {
  /// Multiplicative factor g > 1 of Eq. (7). Each adaptivity step moves
  /// the block size one notch up or down the geometric grid x0 * g^p.
  double factor = 1.25;
  /// Raw measurements folded into one adaptivity step. MIMD relies on
  /// scale averaging (below) for smoothing, so the default steps on
  /// every measurement like the switching controllers.
  int averaging_horizon = 1;
  /// Scale-averaging window: how many historical visits of the *same*
  /// grid point contribute to its smoothed output ŷ.
  int scale_window = 4;
  BlockSizeLimits limits;
  int64_t initial_block_size = 1000;

  Status Validate() const;
};

/// Multiplicative increase / multiplicative decrease extremum controller
/// (paper Section III-B, Eq. 7):
///
///   x_k = x_0 * g^{j(k-1)},   j(k) = sum_{i=1..k} -sign(Δy_i Δx_i)
///
/// Because the control input lives on the geometric grid {x0 * g^p}, the
/// same sizes recur, which makes *scale averaging* natural: the measured
/// output of grid point p is smoothed over its last `scale_window` visits
/// and the smoothed ŷ replaces the raw y in the sign term.
///
/// The paper reports this scheme behaves like the adaptive-gain policies
/// of Fig. 4(a) (it stagnates), which is why it lost to the hybrid
/// controller; it is implemented for the comparison benches.
class MimdController final : public Controller {
 public:
  explicit MimdController(const MimdConfig& config);

  int64_t initial_block_size() const override;
  int64_t NextBlockSize(double response_time_ms) override;
  int64_t adaptivity_steps() const override { return steps_; }
  void Reset() override;
  std::string name() const override { return "mimd"; }
  StateSnapshot DebugState() const override;

  const MimdConfig& config() const { return config_; }

  /// Current grid exponent j(k).
  int exponent() const { return exponent_; }

 private:
  /// Block size for grid exponent p, clamped to limits.
  int64_t GridValue(int p) const;

  /// Smoothed output for grid exponent p after folding in `y`.
  double SmoothedOutput(int p, double y);

  MimdConfig config_;
  int exponent_ = 0;

  double window_y_sum_ = 0.0;
  int window_count_ = 0;

  bool has_prev_ = false;
  double prev_x_ = 0.0;
  double prev_y_hat_ = 0.0;

  int64_t steps_ = 0;

  /// One grid point's smoothing window.
  struct GridHistory {
    int exponent;
    MovingWindow window;
  };
  /// Visited grid points, sorted by exponent. The walk moves one notch
  /// at a time, so this stays a short run of neighbours.
  std::vector<GridHistory> scale_history_;
};

}  // namespace wsq

#endif  // WSQ_CONTROL_MIMD_CONTROLLER_H_
