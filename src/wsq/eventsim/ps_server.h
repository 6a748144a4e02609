#ifndef WSQ_EVENTSIM_PS_SERVER_H_
#define WSQ_EVENTSIM_PS_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "wsq/common/status.h"

namespace wsq {

/// A processor-sharing server on a simulated timeline: all admitted jobs
/// progress simultaneously, each at rate 1/n when n jobs are active —
/// the standard model of a CPU-bound service under concurrent load, and
/// the mechanism behind "the more jobs are running on the server, the
/// [slower each one gets]" in the paper's motivation experiments.
///
/// Usage: Submit jobs with a total service demand (the time the job
/// would take alone), ask for the NextCompletionTime, and AdvanceTo
/// moments on the global timeline; completions pop out in order.
class PsServer {
 public:
  PsServer() = default;

  /// Admits a job with `demand_ms` of solo service time at current time
  /// `now_ms`; returns its id. `client` is an opaque tag handed back by
  /// AdvanceTo when the job completes. kInvalidArgument for non-positive
  /// demand or time regressions.
  Result<int64_t> Submit(double now_ms, double demand_ms, size_t client = 0);

  /// The absolute time at which the next job completes if nothing else
  /// arrives; nullopt when idle.
  std::optional<double> NextCompletionTime() const;

  /// Advances the shared progress to `now_ms` and returns the id of the
  /// job that completed exactly at `now_ms`, if any; `client`, when not
  /// null, receives that job's tag. Jobs completing earlier than
  /// `now_ms` must be harvested first (advance to their completion
  /// times in order — the event core does this). kFailedPrecondition
  /// when `now_ms` would skip past a completion.
  Result<std::optional<int64_t>> AdvanceTo(double now_ms,
                                           size_t* client = nullptr);

  /// Number of jobs currently in service.
  int active_jobs() const { return static_cast<int>(jobs_.size()); }

  double now_ms() const { return now_ms_; }

 private:
  struct Job {
    int64_t id;
    size_t client;
    /// Remaining *solo* service demand; every job depletes at rate
    /// 1/active_jobs().
    double remaining;
  };

  /// Jobs in service in admission (= id) order, so every pass visits
  /// them in the order the ids would sort.
  std::vector<Job> jobs_;
  /// Minimum of jobs_[i].remaining, folded left in id order with
  /// std::min; meaningful only while jobs_ is non-empty.
  double min_remaining_ = 0.0;
  double now_ms_ = 0.0;
  int64_t next_id_ = 1;
};

}  // namespace wsq

#endif  // WSQ_EVENTSIM_PS_SERVER_H_
