#include "wsq/sim/ground_truth.h"

#include "wsq/control/fixed_controller.h"

namespace wsq {

Result<GroundTruth> ComputeGroundTruth(const ResponseProfile& profile,
                                       const BlockSizeLimits& limits,
                                       int64_t grid_step, int runs,
                                       const SimOptions& options) {
  if (!limits.Valid()) {
    return Status::InvalidArgument("ComputeGroundTruth: invalid limits");
  }
  if (grid_step < 1 || runs < 1) {
    return Status::InvalidArgument(
        "ComputeGroundTruth: grid_step and runs must be >= 1");
  }

  GroundTruth out;
  std::vector<int64_t> grid;
  for (int64_t x = limits.min_size; x <= limits.max_size; x += grid_step) {
    grid.push_back(x);
  }
  if (grid.back() != limits.max_size) grid.push_back(limits.max_size);

  for (int64_t x : grid) {
    RunningStats stats;
    for (int run = 0; run < runs; ++run) {
      SimOptions run_options = options;
      run_options.seed = options.seed + static_cast<uint64_t>(run) * 7919 +
                         static_cast<uint64_t>(x);
      SimEngine engine(run_options);
      FixedController controller(x);
      Result<RunTrace> result = engine.RunQuery(&controller, profile);
      if (!result.ok()) return result.status();
      stats.Add(result.value().total_time_ms);
    }
    SweepPoint point;
    point.block_size = x;
    point.mean_ms = stats.mean();
    point.stddev_ms = stats.stddev();
    out.sweep.push_back(point);
  }

  const SweepPoint* best = &out.sweep.front();
  for (const SweepPoint& point : out.sweep) {
    if (point.mean_ms < best->mean_ms) best = &point;
  }
  out.optimum_block_size = best->block_size;
  out.optimum_mean_ms = best->mean_ms;
  return out;
}

}  // namespace wsq
