#include "wsq/eventsim/ps_server.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace wsq {
namespace {

/// Completions within this tolerance of `now` count as "exactly now"
/// (floating-point scheduling slack).
constexpr double kTimeEps = 1e-9;

}  // namespace

Result<int64_t> PsServer::Submit(double now_ms, double demand_ms,
                                 size_t client) {
  if (demand_ms <= 0.0 || !std::isfinite(demand_ms)) {
    return Status::InvalidArgument("PsServer: demand must be positive");
  }
  if (now_ms + kTimeEps < now_ms_) {
    return Status::InvalidArgument("PsServer: time regression on Submit");
  }
  Result<std::optional<int64_t>> advanced = AdvanceTo(std::max(now_ms, now_ms_));
  if (!advanced.ok()) return advanced.status();
  if (advanced.value().has_value()) {
    return Status::FailedPrecondition(
        "PsServer: unharvested completion before Submit");
  }
  const int64_t id = next_id_++;
  // The new job sorts last, so the id-order fold extends by one step.
  min_remaining_ =
      jobs_.empty() ? demand_ms : std::min(min_remaining_, demand_ms);
  jobs_.push_back(Job{id, client, demand_ms});
  return id;
}

std::optional<double> PsServer::NextCompletionTime() const {
  if (jobs_.empty()) return std::nullopt;
  return now_ms_ + min_remaining_ * static_cast<double>(jobs_.size());
}

Result<std::optional<int64_t>> PsServer::AdvanceTo(double now_ms,
                                                   size_t* client) {
  if (now_ms + kTimeEps < now_ms_) {
    return Status::InvalidArgument("PsServer: time regression on AdvanceTo");
  }
  if (jobs_.empty()) {
    now_ms_ = std::max(now_ms_, now_ms);
    return std::optional<int64_t>();
  }

  const double completion = *NextCompletionTime();
  if (completion < now_ms - kTimeEps) {
    return Status::FailedPrecondition(
        "PsServer: AdvanceTo would skip past a completion at " +
        std::to_string(completion));
  }

  const double dt = std::max(now_ms - now_ms_, 0.0);
  // A zero-length advance changes no job (x - 0.0 == x), so unless some
  // job already sits within kTimeEps of done, it has nothing to find.
  // (The event core admits each request right after harvesting its
  // instant, so this is every Submit's case.)
  if (dt == 0.0 && min_remaining_ > kTimeEps) return std::optional<int64_t>();

  // One pass depletes every job and refolds the minimum over the
  // depleted values in id order: the fold a separate scan would compute.
  const double depletion = dt / static_cast<double>(jobs_.size());
  size_t completed = jobs_.size();
  for (size_t i = 0; i < jobs_.size(); ++i) {
    double& remaining = jobs_[i].remaining;
    remaining -= depletion;
    min_remaining_ = i == 0 ? remaining : std::min(min_remaining_, remaining);
    if (remaining <= kTimeEps && completed == jobs_.size()) {
      completed = i;  // at most one job can hit zero per advance
    }
  }
  now_ms_ = std::max(now_ms_, now_ms);
  if (completed == jobs_.size()) return std::optional<int64_t>();

  const Job done = jobs_[completed];
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(completed));
  // The departed job may have held the minimum: refold the rest.
  if (!jobs_.empty()) min_remaining_ = jobs_.front().remaining;
  for (const Job& job : jobs_) {
    min_remaining_ = std::min(min_remaining_, job.remaining);
  }
  if (client != nullptr) *client = done.client;
  return std::optional<int64_t>(done.id);
}

}  // namespace wsq
