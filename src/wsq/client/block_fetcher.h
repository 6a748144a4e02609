#ifndef WSQ_CLIENT_BLOCK_FETCHER_H_
#define WSQ_CLIENT_BLOCK_FETCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/client/call_transport.h"
#include "wsq/common/status.h"
#include "wsq/control/controller.h"
#include "wsq/fault/fault_injector.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/obs/run_observer.h"
#include "wsq/relation/query.h"
#include "wsq/relation/tuple.h"

namespace wsq {

/// Per-block record of the fetch loop, the raw material every figure is
/// drawn from.
struct BlockTrace {
  int64_t block_index = 0;
  int64_t requested_size = 0;
  int64_t received_tuples = 0;
  double response_time_ms = 0.0;
  /// Calls retried after a simulated link timeout while fetching this
  /// block (session open/close retries are not attributed to any block).
  int64_t retries = 0;
  /// Controller adaptivity steps completed *after* this block was folded
  /// in (lets analysis group blocks by adaptivity step).
  int64_t adaptivity_steps = 0;
};

/// Result of draining one query through the fetch loop.
struct FetchOutcome {
  int64_t total_tuples = 0;
  int64_t total_blocks = 0;
  /// End-to-end response time: sum of all per-block times (the client is
  /// otherwise idle — pure pull mode). Includes retry timeouts.
  double total_time_ms = 0.0;
  /// Calls retried after a simulated link timeout or an injected fault
  /// (block calls AND session open/close calls).
  int64_t retries = 0;
  /// Subset of `retries` spent on session open/close exchanges — there
  /// is no block to attribute them to, so per-block BlockTrace.retries
  /// covers exactly `retries - session_retries`.
  int64_t session_retries = 0;
  /// Dead time of every retried exchange (link timeouts, capped injected
  /// fault costs, backoff), included in total_time_ms but in no block's
  /// response_time_ms — the cross-backend retry accounting invariant
  /// (see run_trace.h).
  double retry_time_ms = 0.0;
  std::vector<BlockTrace> trace;
};

/// The paper's Algorithm 1 verbatim: open a session, repeatedly pull
/// blocks whose size the controller picks from the previous block's
/// response time, close the session.
///
///   blockSize = initialBlockSize
///   while !end-of-results:
///     t1 = timestamp(); ws.RequestNewBlock(blockSize); t2 = timestamp()
///     blockSize = Controller.computeNewSize(t2 - t1)
class BlockFetcher {
 public:
  /// `client` (either transport — the simulated WsClient or the live
  /// TcpWsClient) and `controller` must outlive the fetcher.
  /// `max_retries_per_call` bounds how often a failed exchange
  /// (StatusCode::kUnavailable) is re-issued before the whole fetch
  /// fails; SOAP faults are never retried (they are deterministic). It
  /// is the budget of the fetcher's own default-config policy.
  /// `observer`, when non-null, receives the pull loop's spans and
  /// controller decisions stamped with the transport clock's time
  /// (simulated micros or real micros).
  BlockFetcher(WsCallTransport* client, Controller* controller,
               int max_retries_per_call = 2,
               RunObserver* observer = nullptr)
      : client_(client),
        controller_(controller),
        observer_(observer),
        default_policy_(
            ResilienceConfig{.max_retries_per_call = max_retries_per_call},
            /*run_seed=*/0),
        policy_(&default_policy_),
        injector_(nullptr) {}

  /// Chaos-enabled fetcher: `policy` sets the retry budget, backoff
  /// between attempts, per-call deadlines capping injected fault costs
  /// and the circuit breaker governing commanded block sizes; null = the
  /// default config. `injector` scripts faults ahead of the wire,
  /// addressed by block index on the session's simulated clock; null =
  /// no faults. Both must outlive the fetcher and are not owned.
  BlockFetcher(WsCallTransport* client, Controller* controller,
               ResiliencePolicy* policy, FaultInjector* injector,
               RunObserver* observer = nullptr)
      : client_(client),
        controller_(controller),
        observer_(observer),
        default_policy_(ResilienceConfig{}, /*run_seed=*/0),
        policy_(policy ? policy : &default_policy_),
        injector_(injector) {}

  /// The fetcher may point at its own default policy.
  BlockFetcher(const BlockFetcher&) = delete;
  BlockFetcher& operator=(const BlockFetcher&) = delete;

  /// Runs the full fetch loop for `query`. When both `serializer` (built
  /// over the projected output schema) and `keep_tuples` are non-null,
  /// every result tuple is deserialized and appended to `keep_tuples`
  /// (examples want the data; benches only want the trace).
  Result<FetchOutcome> Run(const ScanProjectQuery& query,
                           const class TupleSerializer* serializer = nullptr,
                           std::vector<Tuple>* keep_tuples = nullptr);

 private:
  /// Issues `document`, retrying on kUnavailable (link drops and
  /// injected faults alike, sharing one budget) with any configured
  /// backoff between attempts; accumulates retry counts and dead time
  /// into `outcome`. `block_index` is FaultInjector::kSessionCall for
  /// session open/close exchanges (injected faults are block-addressed
  /// and never fire there; retries are attributed to session_retries).
  Result<CallResult> CallWithRetry(const std::string& document,
                                   int64_t block_index, int64_t block_size,
                                   FetchOutcome* outcome);

  /// Bookkeeping after a failed attempt: feeds the breaker, and when
  /// budget remains charges the attempt's cost plus backoff as retry
  /// dead time. Returns false when the budget is exhausted (the caller
  /// surfaces the failure; the outcome is discarded with the run).
  bool NoteFailure(double attempt_cost_ms, bool session_call, int* attempts,
                   FetchOutcome* outcome);

  WsCallTransport* client_;
  Controller* controller_;
  RunObserver* observer_;
  /// What policy_ points at when the caller supplies no policy.
  ResiliencePolicy default_policy_;
  ResiliencePolicy* policy_;
  FaultInjector* injector_;

  /// Distributed-trace identity of the current Run: one trace id per
  /// query, one span id per call *attempt* (so retries are distinct
  /// spans of the same trace). Stamped onto the transport before every
  /// attempt; a transport without tracing ignores the stamp.
  uint64_t trace_id_ = 0;
  uint64_t next_span_seq_ = 0;
  uint64_t last_call_span_id_ = 0;
};

}  // namespace wsq

#endif  // WSQ_CLIENT_BLOCK_FETCHER_H_
