#ifndef WSQ_NET_SERVER_H_
#define WSQ_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wsq/codec/codec.h"
#include "wsq/common/status.h"
#include "wsq/exec/thread_pool.h"
#include "wsq/fault/fault_injector.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/net/admission.h"
#include "wsq/net/epoll.h"
#include "wsq/net/socket.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/span_context.h"
#include "wsq/server/container.h"

namespace wsq::net {

struct WsqServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// port() after Start).
  int port = 0;
  /// Dispatch worker-pool size. Under the event loop this no longer caps
  /// concurrent *connections* (the loop holds thousands); it caps
  /// concurrently *executing* exchanges — stalls and simulated service
  /// sleeps run on these threads.
  int worker_threads = 8;
  /// Server-side chaos: a non-empty plan is replayed per *session* (not
  /// per connection), so a client that reconnects after an injected
  /// connection drop resumes the same fault schedule at the same block.
  FaultPlan fault_plan;
  /// Per-run seed for the fault plan's probabilistic specs.
  uint64_t fault_seed = 0;
  /// When true (the default, and what wsqd uses), the server sleeps each
  /// exchange's LoadModel-simulated service time for real before
  /// replying, so live response times carry the paper's block-size
  /// dependence and adaptive controllers have a genuine signal to chase.
  /// Tests that only care about protocol mechanics turn it off.
  bool simulate_service_time = true;
  /// The richest block codec this server negotiates (wsqd --codec).
  /// The default keeps negotiation answering "soap" to everyone; set to
  /// binary to let advertising clients upgrade. Its compression option
  /// applies to the binary responses this server encodes.
  codec::CodecChoice codec;
  /// Admission policy: connection cap, per-peer rate limits, and the
  /// worker-queue watermark past which requests are shed with a
  /// retryable fault (all default-off).
  AdmissionConfig admission;
  /// Per-connection write-buffer backpressure threshold: once this many
  /// unsent response bytes are queued on a connection, the loop stops
  /// reading from it (EPOLLIN paused) until the peer drains the buffer —
  /// a slow reader cannot balloon server memory.
  size_t write_buffer_limit = 4u * 1024u * 1024u;
  /// Half-open detection (wsqd --idle-timeout-s): a connection with no
  /// inbound bytes and no in-flight work for this long is evicted. It
  /// gets a kPing at half the timeout first, so a healthy-but-quiet
  /// peer answers and stays. 0 disables.
  double idle_timeout_ms = 0.0;
  /// Session TTL (wsqd --session-ttl-s): DataService sessions (cursor +
  /// replay cache), fault-replay state, and per-session stats rollups
  /// untouched for this long are evicted by loop housekeeping — an
  /// abandoned client cannot strand per-session state forever. 0
  /// disables.
  double session_ttl_ms = 0.0;
};

/// The network frontend of the data service: accepts framed SOAP
/// exchanges over TCP and dispatches them to a ServiceContainer —
/// turning the in-process pull protocol into the wsqd daemon's wire
/// protocol.
///
/// Architecture: a single readiness-based epoll event loop owns the
/// listener and every connection (non-blocking accept/read/write, one
/// incremental FrameParser per connection), so connection count is
/// bounded by fds, not threads. Query dispatch — the only blocking work
/// (container dispatch, injected stalls, simulated service sleeps) —
/// runs on a small exec::ThreadPool. The worker that ran an exchange
/// sends its own response: one gather write straight from the encode
/// buffer into the connection's shared Outbox (see there), with only
/// what the kernel did not take left for the loop to flush. It then
/// posts a completion through a queue plus eventfd wakeup, so the loop
/// frees the dispatch slot. Per-connection ordering is preserved by
/// keeping at most one dispatch in flight per connection and queueing
/// later pipelined frames. Workers dispatch into the container
/// concurrently; the hosted service serializes per session (see
/// DataService), so blocks of different sessions encode in parallel.
///
/// Start/Stop is a *frontend* lifecycle: Stop tears down the listener
/// and every live connection but leaves the container — and therefore
/// all open DataService sessions — intact, so a restarted server
/// resumes half-finished queries. That is precisely what lets a client
/// with a resilient retry policy survive a server kill mid-query.
class WsqServer {
 public:
  /// `container` must outlive the server and every Start/Stop cycle.
  WsqServer(ServiceContainer* container, WsqServerOptions options);
  ~WsqServer();

  WsqServer(const WsqServer&) = delete;
  WsqServer& operator=(const WsqServer&) = delete;

  /// Binds and starts accepting. The first Start resolves an ephemeral
  /// port request; later Starts re-bind the same pinned port (so
  /// clients can reconnect after a Stop/Start cycle). No-op when
  /// already running.
  Status Start();

  /// Stops accepting, closes every live connection (waking blocked
  /// client reads), joins the loop and drains the workers. Idempotent.
  /// Sessions persist.
  void Stop();

  /// Flips the server into draining: the listener closes (no new
  /// connections), idle connections get a kGoaway, and new requests are
  /// shed with a retryable fault — all of which the client maps to
  /// kUnavailable and retries through. In-flight dispatches finish and
  /// their responses flush before the connection closes. Async;
  /// housekeeping on the loop thread does the work.
  void BeginDrain();

  /// wsqd's SIGTERM path: BeginDrain, wait up to `timeout_s` for every
  /// connection and dispatch to finish, then Stop. Returns true when
  /// the drain completed cleanly within the budget (false means Stop
  /// cut off stragglers). Sessions persist either way, so a restarted
  /// server resumes half-finished queries exactly-once.
  bool Drain(double timeout_s);

  bool draining() const { return draining_.load(); }

  bool running() const { return running_.load(); }

  /// The bound port; 0 before the first successful Start.
  int port() const { return pinned_port_; }

  int64_t connections_accepted() const { return connections_accepted_.load(); }
  int64_t exchanges_served() const { return exchanges_served_.load(); }
  int64_t faults_injected() const { return faults_injected_.load(); }
  int64_t replay_hits() const { return replay_hits_.load(); }
  int64_t stats_requests() const { return stats_requests_.load(); }
  int64_t trace_connections() const { return trace_connections_.load(); }
  /// Connections answered with a rejection fault because the loop was at
  /// --max-connections.
  int64_t connections_rejected() const { return connections_rejected_.load(); }
  /// Connections answered with a rejection fault because the peer's
  /// token bucket was empty.
  int64_t rate_limited() const { return rate_limited_.load(); }
  /// Requests shed with a retryable fault because the worker queue sat
  /// at or above the shed watermark.
  int64_t sheds() const { return sheds_.load(); }
  /// Connections currently registered with the event loop.
  int64_t live_connections() const { return live_connections_.load(); }
  /// Connections evicted by half-open detection (idle past
  /// --idle-timeout with no pong).
  int64_t idle_evicted() const { return idle_evicted_.load(); }
  /// Liveness probes sent to quiet connections.
  int64_t pings_sent() const { return pings_sent_.load(); }
  /// kGoaway frames sent while draining.
  int64_t goaways_sent() const { return goaways_sent_.load(); }
  /// DataService sessions evicted by the --session-ttl sweep.
  int64_t evicted_sessions() const { return evicted_sessions_.load(); }

  /// The live stats snapshot this server answers kStats frames with (and
  /// wsqd exports via --stats-out / SIGUSR1): schema_version, frontend
  /// counters, codec mix, worker queue depth, event-loop gauges
  /// (connections, ready-queue depth, sheds, rejections), the
  /// container's open session count, per-session rollups and the
  /// server's private metric registry — all as one RFC 8259 JSON
  /// document. Callable from any thread.
  std::string StatsJson();

 private:
  /// Fault-plan replay state for one DataService session, persisted
  /// across reconnects.
  struct SessionFaultState {
    std::unique_ptr<FaultInjector> injector;
    int64_t blocks_served = 0;
    int64_t start_micros = 0;
    /// Stamp of the last exchange that looked this state up; what the
    /// --session-ttl sweep compares against.
    int64_t last_touch_micros = 0;
  };

  /// How one served exchange ends: keep the connection, close gracefully
  /// (FIN), or close abortively (RST — injected connection resets).
  enum class ExchangeOutcome { kContinue, kClose, kCloseHard };

  /// Per-session transfer accounting for the stats plane (guarded by
  /// stats_mu_). Entries persist across reconnects, like the sessions
  /// they describe.
  struct SessionStats {
    /// The entry's rollups that every exporter sees, as labeled metrics
    /// in stats_registry_, resolved when the entry is created so an
    /// exchange builds no metric names. `block_ms` is the block
    /// residence latency (request fully read -> response stamped, ms):
    /// it feeds the per-session p99 and the stats plane's fairness
    /// section, so a live fleet can read cross-tenant latency spread
    /// without client-side merging. The replay_hits counter is resolved
    /// at the session's first replay: a session that never replays
    /// exports no such counter.
    Counter* blocks = nullptr;
    Counter* bytes_out = nullptr;
    Counter* replay_hits = nullptr;
    Histogram* block_ms = nullptr;
    /// Rollups only the stats plane's `sessions` section reports.
    int64_t bytes_in = 0;
    int64_t faults = 0;
    /// Stamp of the last exchange folded in, for the --session-ttl
    /// sweep.
    int64_t last_touch_micros = 0;
  };

  /// A connection's unsent bytes, shared by the loop and the worker
  /// answering the connection's in-flight exchange. Every field is
  /// guarded by `mu`, and every write to the socket happens under it:
  /// the worker's send of its response, and the loop's appends of its
  /// own frames and flushes on EPOLLOUT. Frames therefore never
  /// interleave. The loop closes the fd only under `mu`, after setting
  /// `closed`; a worker that finds `closed` drops its response, so it
  /// never writes into a closed fd, or into one the kernel reused.
  struct Outbox {
    std::mutex mu;
    int fd = -1;
    bool closed = false;
    /// Bytes the kernel has not taken yet; [cursor, end) is pending.
    /// EPOLLOUT is armed while it is non-empty.
    std::string buf;
    size_t cursor = 0;

    size_t unsent() const { return buf.size() - cursor; }
  };

  /// One live connection, owned by the loop thread. Workers never see
  /// it: they get value copies via DispatchJob, write through the
  /// shared Outbox, and talk back through the completion queue.
  struct Connection {
    int64_t id = -1;
    Socket socket;
    FrameParser parser;
    std::shared_ptr<Outbox> outbox;
    /// epoll interest set currently installed for this fd.
    uint32_t interest = 0;
    /// Negotiated response codec; null until the Hello, and a kRequest
    /// arriving while it is null is refused. shared_ptr because an
    /// in-flight worker may still be encoding with the previous codec
    /// when a re-Hello swaps it.
    std::shared_ptr<const codec::BlockCodec> negotiated;
    /// The Hello carried kFrameFlagTraceContext: requests may carry
    /// trace context, and responses to traced requests carry spans.
    bool trace_negotiated = false;
    /// The Hello carried a verified kFrameFlagCrc: every frame this
    /// server sends on the connection carries a CRC-32C trailer, and
    /// the client's do too.
    bool crc_negotiated = false;
    /// Wall-clock stamp of the last inbound bytes (or accept); drives
    /// the idle scan.
    int64_t last_activity_micros = 0;
    /// A kPing went out and no bytes have arrived since. The next
    /// idle-timeout expiry evicts instead of probing again.
    bool ping_pending = false;
    /// Admission verdict from accept time: a rejecting connection still
    /// answers Hello (the client's connect must succeed for it to read
    /// the verdict) and kStats (the telemetry plane must work
    /// *especially* under overload), but its first kRequest is answered
    /// with one transient-fault frame and the connection closes after
    /// the flush.
    bool rejecting = false;
    /// At most one dispatch per connection is in flight; frames parsed
    /// meanwhile queue here, preserving request→response order.
    bool dispatch_inflight = false;
    std::deque<Frame> pending;
    /// Close requested once the outbox fully drains.
    bool close_after_flush = false;
    /// Terminal state, applied by FinishConn (dead_hard ⇒ RST).
    bool dead = false;
    bool dead_hard = false;
  };

  /// Everything a worker needs to run one exchange, captured by value —
  /// workers never see a Connection.
  struct DispatchJob {
    int64_t conn_id = -1;
    Frame request;
    std::shared_ptr<const codec::BlockCodec> codec;
    bool trace_negotiated = false;
    bool crc_negotiated = false;
    /// The connection's outbox: where the response goes, and — through
    /// `closed` — how a worker waking from an injected stall sees that
    /// the exchange was abandoned and skips the dispatch (otherwise the
    /// session cursor would advance past a block the client never
    /// received).
    std::shared_ptr<Outbox> outbox;
  };

  /// A finished exchange travelling worker → loop. Its response, if
  /// any, is already sent or queued in the outbox.
  struct Completion {
    int64_t conn_id = -1;
    ExchangeOutcome outcome = ExchangeOutcome::kContinue;
  };

  void EventLoop();
  void AcceptReady();
  void HandleConnEvent(uint64_t tag, uint32_t events);
  void ReadReady(Connection& conn);
  /// Routes one parsed frame: queue behind an in-flight dispatch, or
  /// handle now (Hello/Stats inline on the loop; kRequest via admission
  /// → shed → worker submit).
  void ProcessFrame(Connection& conn, Frame frame);
  void HandleFrameNow(Connection& conn, Frame frame);
  void HandleRequestFrame(Connection& conn, Frame frame);
  /// Appends `frame` to the connection's outbox, stamping the CRC
  /// trailer when the connection negotiated "crc" (by value: the stamp
  /// mutates the frame). The loop flushes it in FinishConn.
  void SendFrame(Connection& conn, Frame frame);
  /// Appends the transient-fault frame rejected/shed exchanges are
  /// answered with (client-side: retryable kUnavailable).
  void SendBackpressureFault(Connection& conn, const std::string& detail);
  /// Sends what the outbox holds until the kernel stops taking bytes;
  /// returns the bytes still unsent.
  size_t FlushWrites(Connection& conn);
  /// Bytes queued in the connection's outbox.
  static size_t Unsent(const Connection& conn);
  void UpdateInterest(int64_t id, Connection& conn, size_t unsent);
  /// Flush, re-arm interest, and bury the connection if it died — the
  /// single exit point every event path funnels through.
  void FinishConn(int64_t id);
  void CloseConn(int64_t id, bool hard);
  void DrainCompletions();
  /// Timer-driven upkeep, run from the loop at the tick cadence: the
  /// drain sweep (close the listener, say goodbye to idle
  /// connections), half-open detection (ping then evict), and the
  /// session-TTL sweep over the container, fault-replay and stats
  /// maps.
  void Housekeeping();
  static void MarkDead(Connection& conn, bool hard);

  /// The worker-side body of one exchange: chaos injection, stalls,
  /// container dispatch, simulated service sleep, tracing — everything
  /// between reading the request and writing the response. Fills
  /// `response` when it returns kContinue.
  ExchangeOutcome RunExchange(const DispatchJob& job, Frame* response);

  /// The worker's send: one gather write of `response` straight from
  /// its buffers when the outbox is empty, with whatever the kernel did
  /// not take (or everything, behind bytes already queued) appended to
  /// the outbox for the loop to flush. A closed outbox drops the
  /// response. Returns how the connection goes on.
  static ExchangeOutcome SendResponse(Outbox& outbox, const Frame& response);

  std::shared_ptr<SessionFaultState> FaultStateForSession(int64_t session_id);

  /// The session id of a block request payload (binary or SOAP), or -1
  /// when the payload is anything else. Shared by chaos targeting and
  /// per-session stats attribution.
  static int64_t BlockRequestSessionId(const std::string& payload);

  /// Folds one served exchange into the per-session rollups, most of
  /// them labeled metrics in stats_registry_. `latency_ms` is the exchange's
  /// server residence (request fully read -> response stamped).
  void RecordExchangeStats(int64_t session_id, size_t request_bytes,
                           size_t response_bytes, bool replayed, bool fault,
                           double latency_ms);

  ServiceContainer* container_;
  WsqServerOptions options_;

  Socket listener_;
  int pinned_port_ = 0;
  std::thread loop_thread_;
  std::unique_ptr<Epoll> epoll_;
  std::unique_ptr<EventFd> wakeup_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<bool> running_{false};
  /// Drain mode (see BeginDrain). Cleared by Start and Stop, so a
  /// drained-then-restarted server accepts again.
  std::atomic<bool> draining_{false};
  /// Loop-thread throttle for Housekeeping (the loop can spin far
  /// faster than the tick under load).
  int64_t last_housekeeping_micros_ = 0;

  /// Loop-thread state: the connection table and id allocator. No mutex
  /// by design — single-owner, which is what keeps the loop TSan-clean.
  std::map<int64_t, std::unique_ptr<Connection>> conns_;
  int64_t next_connection_id_ = 0;

  /// Worker → loop completion queue; wakeup_ is signalled after a push.
  /// DrainCompletions swaps it with `drained_completions_` (loop-thread
  /// only), so neither side allocates once both have grown.
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  std::vector<Completion> drained_completions_;

  /// Session-keyed fault replay state (guarded by fault_mu_). Entries
  /// outlive connections deliberately — see WsqServerOptions::fault_plan.
  /// shared_ptr values so the TTL sweep can evict an entry while a
  /// worker still holds its state across an exchange (the worker's
  /// reference keeps the node alive; the map just forgets it).
  std::mutex fault_mu_;
  std::map<int64_t, std::shared_ptr<SessionFaultState>> session_faults_;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> exchanges_served_{0};
  std::atomic<int64_t> faults_injected_{0};
  std::atomic<int64_t> replay_hits_{0};
  std::atomic<int64_t> stats_requests_{0};
  std::atomic<int64_t> trace_connections_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> rate_limited_{0};
  std::atomic<int64_t> sheds_{0};
  std::atomic<int64_t> live_connections_{0};
  std::atomic<int64_t> idle_evicted_{0};
  std::atomic<int64_t> pings_sent_{0};
  std::atomic<int64_t> goaways_sent_{0};
  std::atomic<int64_t> evicted_sessions_{0};
  /// Dispatches submitted but not yet drained (queued + executing) —
  /// the load signal the shed watermark compares against.
  std::atomic<int64_t> dispatch_inflight_{0};
  /// Size of the last epoll batch — the loop's ready-queue depth gauge.
  std::atomic<int64_t> ready_queue_depth_{0};
  std::atomic<int64_t> bytes_in_{0};
  std::atomic<int64_t> bytes_out_{0};
  std::atomic<int64_t> soap_responses_{0};
  std::atomic<int64_t> binary_responses_{0};

  /// Server-side span-id allocator: unique within the process, which is
  /// all the Chrome-trace model needs.
  std::atomic<uint64_t> next_span_id_{1};

  /// Per-session rollups + the private registry their labeled metrics
  /// live in (kept out of the global registry so a server embedded in a
  /// test or bench process does not leak per-session series into the
  /// client's own metric exports).
  std::mutex stats_mu_;
  std::map<int64_t, SessionStats> session_stats_;
  MetricsRegistry stats_registry_;
};

/// Client side of the kStats control frame: opens a fresh connection to
/// `host:port`, asks for a stats snapshot and returns the JSON document.
/// A dedicated connection keeps the telemetry plane off the data path —
/// no interleaving with in-flight exchanges, no codec negotiation.
Result<std::string> FetchServerStats(const std::string& host, int port,
                                     double timeout_ms);

}  // namespace wsq::net

#endif  // WSQ_NET_SERVER_H_
