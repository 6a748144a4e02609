#include "wsq/control/mimd_controller.h"

#include <algorithm>
#include <cmath>

namespace wsq {
namespace {

int PaperSign(double v) { return v > 0.0 ? 1 : -1; }

}  // namespace

Status MimdConfig::Validate() const {
  if (factor <= 1.0) {
    return Status::InvalidArgument("MIMD factor must be > 1");
  }
  if (averaging_horizon < 1) {
    return Status::InvalidArgument("averaging_horizon must be >= 1");
  }
  if (scale_window < 1) {
    return Status::InvalidArgument("scale_window must be >= 1");
  }
  if (!limits.Valid()) {
    return Status::InvalidArgument("block size limits invalid");
  }
  if (initial_block_size < 1) {
    return Status::InvalidArgument("initial_block_size must be >= 1");
  }
  return Status::Ok();
}

MimdController::MimdController(const MimdConfig& config) : config_(config) {}

int64_t MimdController::initial_block_size() const {
  return config_.limits.Clamp(static_cast<double>(config_.initial_block_size));
}

int64_t MimdController::GridValue(int p) const {
  const double x = static_cast<double>(config_.initial_block_size) *
                   std::pow(config_.factor, p);
  return config_.limits.Clamp(x);
}

double MimdController::SmoothedOutput(int p, double y) {
  auto it = std::lower_bound(
      scale_history_.begin(), scale_history_.end(), p,
      [](const GridHistory& h, int exponent) { return h.exponent < exponent; });
  if (it == scale_history_.end() || it->exponent != p) {
    it = scale_history_.insert(
        it, GridHistory{p, MovingWindow(static_cast<size_t>(config_.scale_window))});
  }
  it->window.Add(y);
  return it->window.Mean();
}

int64_t MimdController::NextBlockSize(double response_time_ms) {
  window_y_sum_ += response_time_ms;
  ++window_count_;
  if (window_count_ < config_.averaging_horizon) {
    return GridValue(exponent_);
  }

  const double avg_y = window_y_sum_ / static_cast<double>(window_count_);
  window_y_sum_ = 0.0;
  window_count_ = 0;
  ++steps_;

  const double x = static_cast<double>(GridValue(exponent_));
  const double y_hat = SmoothedOutput(exponent_, avg_y);

  if (!has_prev_) {
    // First step: no deltas; take one notch up, mirroring the switching
    // controllers' mandatory first increase.
    has_prev_ = true;
    prev_x_ = x;
    prev_y_hat_ = y_hat;
    ++exponent_;
    return GridValue(exponent_);
  }

  const double dx = x - prev_x_;
  const double dy = y_hat - prev_y_hat_;
  prev_x_ = x;
  prev_y_hat_ = y_hat;

  // Δx can be 0 when the grid is pinned at a limit; treat as "try the
  // other direction" via the paper sign convention (sign(0) = -1 grows x,
  // which the clamp then absorbs).
  exponent_ += -PaperSign(dy * dx);

  // Keep the exponent inside the band that maps to the limits so it
  // cannot wind up unboundedly while clamped.
  while (exponent_ > 0 && GridValue(exponent_ - 1) == config_.limits.max_size) {
    --exponent_;
  }
  while (exponent_ < 0 && GridValue(exponent_ + 1) == config_.limits.min_size) {
    ++exponent_;
  }
  return GridValue(exponent_);
}

void MimdController::Reset() {
  exponent_ = 0;
  window_y_sum_ = 0.0;
  window_count_ = 0;
  has_prev_ = false;
  prev_x_ = prev_y_hat_ = 0.0;
  steps_ = 0;
  scale_history_.clear();
}

StateSnapshot MimdController::DebugState() const {
  StateSnapshot snapshot = Controller::DebugState();
  snapshot.Add("factor", config_.factor);
  snapshot.Add("exponent", exponent_);
  snapshot.Add("command", GridValue(exponent_));
  snapshot.Add("scale_window", config_.scale_window);
  snapshot.Add("grid_points_visited",
               static_cast<int64_t>(scale_history_.size()));
  return snapshot;
}

}  // namespace wsq
