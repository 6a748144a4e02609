#include "wsq/backend/query_backend.h"

namespace wsq {

Result<RunChaos> MakeRunChaos(const RunSpec& spec, uint64_t run_seed) {
  const bool has_plan =
      spec.fault_plan != nullptr && !spec.fault_plan->empty();
  if (has_plan) WSQ_RETURN_IF_ERROR(spec.fault_plan->Validate());
  const ResilienceConfig config =
      spec.resilience != nullptr ? *spec.resilience : ResilienceConfig{};
  WSQ_RETURN_IF_ERROR(config.Validate());
  RunChaos chaos{std::nullopt, ResiliencePolicy(config, run_seed)};
  if (has_plan) chaos.injector.emplace(*spec.fault_plan, run_seed);
  return chaos;
}

}  // namespace wsq
