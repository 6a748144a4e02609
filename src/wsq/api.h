#ifndef WSQ_API_H_
#define WSQ_API_H_

/// Umbrella header for the wsq library — everything a downstream user
/// needs to run adaptive block-size-controlled queries over (simulated)
/// web services:
///
///  * controllers (wsq/control): fixed, constant/adaptive switching
///    extremum, hybrid, MIMD, model-based, self-tuning;
///  * the full simulated WS stack (relation + soap + netsim + server +
///    client) for end-to-end "empirical" runs;
///  * the profile-driven simulation engine (wsq/sim) for controlled
///    experiments;
///  * the unified execution layer (wsq/backend): one QueryBackend
///    interface and RunTrace record over all three stacks, plus the
///    backend-generic repeated-run harness;
///  * the parallel experiment engine (wsq/exec): a fixed ThreadPool and
///    run-lane fan-out with deterministic per-run seeding, so repeated
///    runs scale across cores with byte-identical figure output;
///  * the fault-injection & resilience layer (wsq/fault): scripted
///    FaultPlans honored identically by every backend, plus the
///    backoff/deadline/circuit-breaker ResiliencePolicy and the
///    controller divergence watchdog (wsq/control/watchdog_controller);
///  * the live network transport (wsq/net + TcpWsClient + LiveBackend):
///    length-prefixed framing over real TCP, the wsqd server frontend,
///    and a QueryBackend that runs the same pull loop against it on the
///    wall clock;
///  * the negotiated block codecs (wsq/codec): the historical SOAP/XML
///    round-trip behind a BlockCodec interface next to a columnar
///    binary codec with zero-copy decode and optional LZ compression,
///    selected per connection via the Hello/HelloAck handshake;
///  * the fleet co-scheduling engine (wsq/fleet): N tenant sessions
///    sharing one simulated world (one clock, one LoadModel priced at
///    the live in-flight count) or one live wsqd server, with
///    fairness / convergence / oscillation analytics exported as
///    wsq.fleet.* metrics.
///
/// See examples/quickstart.cc for the 30-line tour.

#include "wsq/backend/empirical_backend.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/backend/experiment.h"
#include "wsq/backend/fetch_trace.h"
#include "wsq/backend/live_backend.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/backend/query_backend.h"
#include "wsq/backend/run_stats.h"
#include "wsq/backend/run_trace.h"
#include "wsq/client/block_fetcher.h"
#include "wsq/client/block_shipper.h"
#include "wsq/client/call_transport.h"
#include "wsq/client/query_session.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/client/ws_client.h"
#include "wsq/codec/binary_codec.h"
#include "wsq/codec/codec.h"
#include "wsq/codec/soap_codec.h"
#include "wsq/codec/wire_rows.h"
#include "wsq/common/clock.h"
#include "wsq/common/csv_writer.h"
#include "wsq/common/logging.h"
#include "wsq/common/random.h"
#include "wsq/common/status.h"
#include "wsq/common/text_table.h"
#include "wsq/control/controller.h"
#include "wsq/control/factories.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/control/hybrid_controller.h"
#include "wsq/control/mimd_controller.h"
#include "wsq/control/model_based_controller.h"
#include "wsq/control/self_tuning_controller.h"
#include "wsq/control/switching_controller.h"
#include "wsq/control/watchdog_controller.h"
#include "wsq/eventsim/event_sim.h"
#include "wsq/eventsim/ps_server.h"
#include "wsq/exec/bench_report.h"
#include "wsq/exec/exec_context.h"
#include "wsq/exec/parallel_runner.h"
#include "wsq/exec/thread_pool.h"
#include "wsq/fault/exchange_player.h"
#include "wsq/fault/fault_injector.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/fault/resilience_policy.h"
#include "wsq/fleet/analytics.h"
#include "wsq/fleet/fleet_spec.h"
#include "wsq/fleet/fleet_world.h"
#include "wsq/fleet/live_fleet.h"
#include "wsq/linalg/least_squares.h"
#include "wsq/linalg/matrix.h"
#include "wsq/linalg/rls.h"
#include "wsq/net/frame.h"
#include "wsq/net/server.h"
#include "wsq/net/socket.h"
#include "wsq/netsim/link_model.h"
#include "wsq/netsim/presets.h"
#include "wsq/obs/json_lite.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/run_observer.h"
#include "wsq/obs/state_snapshot.h"
#include "wsq/obs/trace.h"
#include "wsq/relation/predicate.h"
#include "wsq/relation/query.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/table.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/relation/tuple.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/server/container.h"
#include "wsq/server/data_service.h"
#include "wsq/server/dbms.h"
#include "wsq/server/load_model.h"
#include "wsq/server/processing_service.h"
#include "wsq/server/service.h"
#include "wsq/sim/ground_truth.h"
#include "wsq/sim/profile.h"
#include "wsq/sim/profile_io.h"
#include "wsq/sim/profile_library.h"
#include "wsq/sim/sim_engine.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"
#include "wsq/soap/xml.h"
#include "wsq/stats/moving_window.h"
#include "wsq/stats/running_stats.h"

#endif  // WSQ_API_H_
