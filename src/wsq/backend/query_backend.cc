#include "wsq/backend/query_backend.h"

namespace wsq {

Result<RunChaos> MakeRunChaos(const RunSpec& spec, uint64_t run_seed) {
  RunChaos chaos;
  if (spec.fault_plan != nullptr && !spec.fault_plan->empty()) {
    WSQ_RETURN_IF_ERROR(spec.fault_plan->Validate());
    chaos.injector.emplace(*spec.fault_plan, run_seed);
  }
  if (chaos.injector.has_value() || spec.resilience != nullptr) {
    const ResilienceConfig config =
        spec.resilience != nullptr ? *spec.resilience : ResilienceConfig{};
    WSQ_RETURN_IF_ERROR(config.Validate());
    chaos.policy.emplace(config, run_seed);
  }
  return chaos;
}

}  // namespace wsq
