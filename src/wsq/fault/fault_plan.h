#ifndef WSQ_FAULT_FAULT_PLAN_H_
#define WSQ_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wsq/common/status.h"

namespace wsq {

/// The fault taxonomy the chaos layer can script. The first three are
/// *failure* kinds — the exchange does not complete and the client pays a
/// kind-specific dead time before it may retry. The last two are
/// *perturbation* kinds — the exchange completes, but slower.
enum class FaultKind {
  /// The request (or its response) is silently lost; the client notices
  /// only when its timeout fires. Costs FaultPlan::timeout_ms.
  kUnavailability = 0,
  /// The transport connection is torn down mid-exchange; the client
  /// notices quickly. Costs FaultPlan::reset_cost_ms.
  kConnectionReset,
  /// The service answers promptly, but with a transient SOAP fault.
  /// Costs FaultPlan::fault_response_ms. Unlike an *organic* SOAP fault
  /// (kRemoteFault, never retried), an injected burst models a transient
  /// server-side condition and is retried like any failed exchange.
  kSoapFaultBurst,
  /// The exchange completes but its wire time is scaled/extended by
  /// FaultSpec::latency_multiplier / latency_add_ms.
  kLatencySpike,
  /// The server pauses FaultSpec::stall_ms before answering; the
  /// exchange completes.
  kServerStall,
};

/// Canonical lowercase name of `kind` (e.g. "unavailability").
std::string_view FaultKindName(FaultKind kind);

/// True for the kinds whose injection makes the exchange fail
/// (unavailability, reset, soap-fault burst).
bool IsFailureKind(FaultKind kind);

/// One scripted fault source. A spec is *active* for a given exchange
/// when both its block window and its time window match; an unset
/// dimension (the defaults) always matches, so plans can address faults
/// by block index, by sim time, or both.
struct FaultSpec {
  FaultKind kind = FaultKind::kUnavailability;

  /// Block-index window [first_block, last_block], inclusive;
  /// last_block < 0 means "through the end of the query".
  int64_t first_block = 0;
  int64_t last_block = -1;

  /// Sim-time window [start_ms, end_ms); start_ms < 0 disables the time
  /// constraint, end_ms < 0 leaves the window open-ended. The reference
  /// clock is each backend's own run clock (sim time for the simulators,
  /// the SimClock for the empirical stack), measured from run start.
  double start_ms = -1.0;
  double end_ms = -1.0;

  /// Probability that an active spec fires on a given attempt (failure
  /// kinds) or block (perturbation kinds). 1.0 = deterministic.
  double probability = 1.0;

  /// Failure kinds only: at most this many attempts are failed per
  /// block by this spec, so a bounded retry budget can always drain the
  /// burst. Perturbation kinds ignore it (they fire at most once per
  /// block).
  int faults_per_block = 1;

  /// kLatencySpike knobs: completed-exchange time becomes
  /// `time * latency_multiplier + latency_add_ms`.
  double latency_multiplier = 1.0;
  double latency_add_ms = 0.0;

  /// kServerStall knob: the server sits on the request this long before
  /// answering.
  double stall_ms = 0.0;
};

/// A deterministic, seedable schedule of fault events, honored
/// identically by all three backends (RunSpec::fault_plan). The costs of
/// failed exchanges are part of the plan — not of any backend — which is
/// what makes the cross-backend accounting invariant testable: a failed
/// exchange costs the same dead time no matter which stack replays it.
struct FaultPlan {
  /// Display name ("burst", "flaky", ... or "custom").
  std::string name = "custom";

  std::vector<FaultSpec> specs;

  /// Dead time charged for one injected kUnavailability attempt — the
  /// client-side timeout.
  double timeout_ms = 500.0;
  /// Dead time charged for one injected kConnectionReset attempt.
  double reset_cost_ms = 20.0;
  /// Dead time charged for one injected kSoapFaultBurst attempt (the
  /// fault response still makes a round trip).
  double fault_response_ms = 50.0;

  /// Plan-level seed, combined with the per-run seed (see
  /// FaultStreamSeed) so probabilistic specs draw from per-run
  /// deterministic streams.
  uint64_t seed = 0;

  bool empty() const { return specs.empty(); }

  /// Dead time one injected failed attempt of `kind` costs the client
  /// (timeout_ms / reset_cost_ms / fault_response_ms); 0 for
  /// perturbation kinds, which never fail an attempt.
  double FailureCostMs(FaultKind kind) const;

  /// Validates ranges (probabilities in [0,1], positive costs, sane
  /// windows). Backends call this before building an injector.
  Status Validate() const;

  /// Looks up a named preset: "none" (empty plan), "burst"
  /// (deterministic unavailability bursts deep enough to exhaust the
  /// default 2-retry budget), "latency", "stall", "flaky" (probabilistic
  /// mixed faults), "outage" (a long unavailability window), "resets".
  static Result<FaultPlan> FromName(std::string_view name);

  /// The preset names FromName accepts, for --help text.
  static std::vector<std::string> KnownNames();
};

/// One entry of the injector's fault event log — the artifact the chaos
/// conformance suite compares across backends: for a shared plan, all
/// three backends must produce the identical sequence.
struct InjectedFault {
  int64_t block_index = 0;
  FaultKind kind = FaultKind::kUnavailability;

  friend bool operator==(const InjectedFault& a, const InjectedFault& b) {
    return a.block_index == b.block_index && a.kind == b.kind;
  }
  friend bool operator!=(const InjectedFault& a, const InjectedFault& b) {
    return !(a == b);
  }
};

/// The per-run RNG stream seed for a plan: mixes the plan seed with the
/// run seed (itself `base + run * 104729` under the repeated-run
/// harness) so every parallel lane replays the same stream as the serial
/// path — fault plans compose with the exec engine for free.
uint64_t FaultStreamSeed(const FaultPlan& plan, uint64_t run_seed);

}  // namespace wsq

#endif  // WSQ_FAULT_FAULT_PLAN_H_
