#include "wsq/fault/fault_plan.h"

#include <utility>

namespace wsq {
namespace {

/// splitmix64 finalizer — a cheap, well-mixed 64-bit hash used to derive
/// independent fault streams from (plan seed, run seed) pairs.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

FaultSpec Unavailability(int64_t first, int64_t last, int per_block) {
  FaultSpec spec;
  spec.kind = FaultKind::kUnavailability;
  spec.first_block = first;
  spec.last_block = last;
  spec.faults_per_block = per_block;
  return spec;
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUnavailability:
      return "unavailability";
    case FaultKind::kConnectionReset:
      return "connection_reset";
    case FaultKind::kSoapFaultBurst:
      return "soap_fault";
    case FaultKind::kLatencySpike:
      return "latency_spike";
    case FaultKind::kServerStall:
      return "server_stall";
  }
  return "unknown";
}

bool IsFailureKind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUnavailability:
    case FaultKind::kConnectionReset:
    case FaultKind::kSoapFaultBurst:
      return true;
    case FaultKind::kLatencySpike:
    case FaultKind::kServerStall:
      return false;
  }
  return false;
}

double FaultPlan::FailureCostMs(FaultKind kind) const {
  switch (kind) {
    case FaultKind::kUnavailability:
      return timeout_ms;
    case FaultKind::kConnectionReset:
      return reset_cost_ms;
    case FaultKind::kSoapFaultBurst:
      return fault_response_ms;
    case FaultKind::kLatencySpike:
    case FaultKind::kServerStall:
      return 0.0;
  }
  return 0.0;
}

Status FaultPlan::Validate() const {
  if (timeout_ms <= 0.0) {
    return Status::InvalidArgument("FaultPlan.timeout_ms must be > 0");
  }
  if (reset_cost_ms <= 0.0) {
    return Status::InvalidArgument("FaultPlan.reset_cost_ms must be > 0");
  }
  if (fault_response_ms <= 0.0) {
    return Status::InvalidArgument("FaultPlan.fault_response_ms must be > 0");
  }
  for (const FaultSpec& spec : specs) {
    if (spec.first_block < 0) {
      return Status::InvalidArgument("FaultSpec.first_block must be >= 0");
    }
    if (spec.last_block >= 0 && spec.last_block < spec.first_block) {
      return Status::InvalidArgument(
          "FaultSpec.last_block must be >= first_block (or < 0 for open)");
    }
    if (spec.start_ms >= 0.0 && spec.end_ms >= 0.0 &&
        spec.end_ms < spec.start_ms) {
      return Status::InvalidArgument(
          "FaultSpec.end_ms must be >= start_ms (or < 0 for open)");
    }
    if (spec.probability < 0.0 || spec.probability > 1.0) {
      return Status::InvalidArgument(
          "FaultSpec.probability must be in [0, 1]");
    }
    if (spec.faults_per_block < 0) {
      return Status::InvalidArgument(
          "FaultSpec.faults_per_block must be >= 0");
    }
    if (spec.latency_multiplier <= 0.0) {
      return Status::InvalidArgument(
          "FaultSpec.latency_multiplier must be > 0");
    }
    if (spec.latency_add_ms < 0.0) {
      return Status::InvalidArgument("FaultSpec.latency_add_ms must be >= 0");
    }
    if (spec.stall_ms < 0.0) {
      return Status::InvalidArgument("FaultSpec.stall_ms must be >= 0");
    }
  }
  return Status::Ok();
}

Result<FaultPlan> FaultPlan::FromName(std::string_view name) {
  FaultPlan plan;
  plan.name = std::string(name);
  if (name == "none") {
    return plan;
  }
  if (name == "burst") {
    // Deterministic unavailability bursts: three lost exchanges in a row
    // on each block of two windows. The default policy (2 retries = 3
    // attempts) dies on the first burst block; a budget of >= 3 retries
    // drains it.
    plan.specs.push_back(Unavailability(2, 5, /*per_block=*/3));
    plan.specs.push_back(Unavailability(12, 15, /*per_block=*/3));
    return plan;
  }
  if (name == "latency") {
    FaultSpec spike;
    spike.kind = FaultKind::kLatencySpike;
    spike.first_block = 2;
    spike.last_block = 9;
    spike.latency_multiplier = 3.0;
    spike.latency_add_ms = 25.0;
    plan.specs.push_back(spike);
    return plan;
  }
  if (name == "stall") {
    FaultSpec stall;
    stall.kind = FaultKind::kServerStall;
    stall.first_block = 4;
    stall.last_block = 7;
    stall.stall_ms = 200.0;
    plan.specs.push_back(stall);
    return plan;
  }
  if (name == "flaky") {
    // Probabilistic background flakiness across the whole run.
    FaultSpec drop = Unavailability(0, -1, /*per_block=*/2);
    drop.probability = 0.2;
    plan.specs.push_back(drop);
    FaultSpec reset;
    reset.kind = FaultKind::kConnectionReset;
    reset.last_block = -1;
    reset.probability = 0.1;
    plan.specs.push_back(reset);
    FaultSpec spike;
    spike.kind = FaultKind::kLatencySpike;
    spike.last_block = -1;
    spike.probability = 0.15;
    spike.latency_multiplier = 2.0;
    plan.specs.push_back(spike);
    return plan;
  }
  if (name == "outage") {
    // A sim-time-addressed outage: every exchange attempted inside the
    // window is lost. The client escapes by paying timeouts until its
    // clock passes end_ms — or dies trying, if its retry budget is
    // shallower than the window.
    FaultSpec outage = Unavailability(0, -1, /*per_block=*/8);
    outage.start_ms = 200.0;
    outage.end_ms = 1500.0;
    plan.specs.push_back(outage);
    return plan;
  }
  if (name == "resets") {
    FaultSpec reset;
    reset.kind = FaultKind::kConnectionReset;
    reset.first_block = 1;
    reset.last_block = 6;
    reset.faults_per_block = 2;
    plan.specs.push_back(reset);
    return plan;
  }
  return Status::NotFound("unknown fault plan: " + std::string(name));
}

std::vector<std::string> FaultPlan::KnownNames() {
  return {"none", "burst", "latency", "stall", "flaky", "outage", "resets"};
}

uint64_t FaultStreamSeed(const FaultPlan& plan, uint64_t run_seed) {
  return Mix64(plan.seed ^ Mix64(run_seed));
}

}  // namespace wsq
