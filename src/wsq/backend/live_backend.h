#ifndef WSQ_BACKEND_LIVE_BACKEND_H_
#define WSQ_BACKEND_LIVE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "wsq/backend/query_backend.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/relation/query.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"

namespace wsq {

/// Everything needed to point the live stack at a running wsqd server.
struct LiveSetup {
  std::string host = "127.0.0.1";
  int port = 0;
  ScanProjectQuery query;
  /// Transport options; `client_options.codec` selects what the
  /// connection handshake advertises (--codec=binary upgrades the block
  /// path when the server agrees).
  TcpWsClientOptions client_options;
  /// Output schema of `query` (table schema after projection), needed
  /// only to deserialize result rows in RunQueryKeepingTuples; traces
  /// don't require it. The server does not ship schemas — the caller
  /// knows what it asked for.
  std::shared_ptr<Schema> output_schema;
  /// Base seed for the resilience policy's jitter stream when
  /// RunSpec::seed is 0.
  uint64_t seed = 1;
};

/// QueryBackend over a *real network*: the paper's Algorithm 1 pull loop
/// (the same BlockFetcher the empirical stack uses) driven through a
/// TcpWsClient against a wsqd server, timed on the wall clock. All
/// controllers, the resilience policy, and the observability layer run
/// unchanged — per-block times are genuine round-trip measurements, and
/// the network lane of the obs layer carries real microseconds.
///
/// Differences from the simulated backends, by necessity:
///  * traces are not reproducible across runs (wall time is not seeded);
///  * RunSpec::fault_plan is rejected — on the live path chaos is
///    injected *server-side* (wsqd --fault-plan), where a fault can
///    actually tear down a TCP connection;
///  * profile schedules are unsupported (there is no profile to swap).
class LiveBackend final : public QueryBackend {
 public:
  explicit LiveBackend(LiveSetup setup);

  std::string name() const override { return "live"; }

  /// Clones share the setup; every run opens its own connection, so
  /// clones are safe on concurrent lanes (the multi-client benchmark).
  std::unique_ptr<QueryBackend> Clone() const override;

  Result<RunTrace> RunQuery(Controller* controller,
                            const RunSpec& spec) override;

  /// Same as RunQuery but also deserializes and returns the result rows;
  /// requires LiveSetup::output_schema.
  Result<RunTrace> RunQueryKeepingTuples(Controller* controller,
                                         const RunSpec& spec,
                                         std::vector<Tuple>* rows);

  const LiveSetup& setup() const { return setup_; }

 private:
  LiveSetup setup_;
};

}  // namespace wsq

#endif  // WSQ_BACKEND_LIVE_BACKEND_H_
