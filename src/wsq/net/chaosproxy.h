#ifndef WSQ_NET_CHAOSPROXY_H_
#define WSQ_NET_CHAOSPROXY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "wsq/common/random.h"
#include "wsq/common/status.h"
#include "wsq/fault/net_fault_plan.h"
#include "wsq/net/epoll.h"
#include "wsq/net/socket.h"

namespace wsq::net {

struct ChaosProxyOptions {
  /// Where real traffic goes (the wsqd under test).
  std::string upstream_host = "127.0.0.1";
  int upstream_port = 0;

  /// Port the proxy listens on; 0 picks an ephemeral port (read it back
  /// with port() after Start()).
  int listen_port = 0;

  /// The transport faults to inject. An empty plan relays every byte
  /// unmodified and unshaped — the proxy is then wire-transparent, which
  /// the conformance suite asserts byte-for-byte.
  NetFaultPlan plan;

  /// Per-direction buffered-bytes cap: when a pipe's shaped queue
  /// exceeds this, the proxy stops reading from the source side until
  /// the sink drains (the proxy must not become an unbounded buffer in
  /// front of a slow consumer).
  size_t max_buffered_bytes = 4u * 1024u * 1024u;

  /// Deadline for the upstream connect performed at accept time.
  double upstream_connect_timeout_ms = 2000.0;
};

/// In-process TCP chaos proxy (toxiproxy-style): sits between
/// TcpWsClient and wsqd on loopback and perturbs the byte stream
/// according to a NetFaultPlan — added latency/jitter, bandwidth caps,
/// slow-loris trickle, mid-frame RSTs, black holes, half-open drops,
/// and byte corruption. It operates strictly below the framing layer
/// (it never parses a frame), so everything the protocol survives here
/// it survives against a real degraded WAN.
///
/// Single epoll loop thread, same event-loop idiom as WsqServer:
/// non-blocking accept/read/write, level-triggered interest re-armed
/// explicitly, per-pipe delayed-release chunk queues implementing the
/// time-based shaping. Start()/Stop() bracket the loop; all stats
/// accessors are safe from any thread.
class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Validates the plan, binds the listener, and starts the loop.
  Status Start();

  /// Stops the loop and closes every proxied connection (hard). Safe to
  /// call twice.
  void Stop();

  /// The proxy's listening port (valid after Start()).
  int port() const { return port_; }

  /// --- Fault/throughput accounting (any thread) ---------------------
  int64_t connections_accepted() const { return accepted_.load(); }
  int64_t bytes_forwarded() const { return forwarded_bytes_.load(); }
  int64_t resets_injected() const { return resets_injected_.load(); }
  int64_t bytes_corrupted() const { return corrupted_bytes_.load(); }
  int64_t bytes_dropped() const { return dropped_bytes_.load(); }
  int64_t blackholed_connections() const { return blackholed_.load(); }

 private:
  /// One shaped chunk awaiting its release time.
  struct Chunk {
    int64_t release_micros = 0;
    std::string bytes;
  };

  /// One direction of a proxied connection: bytes read from `src` are
  /// shaped into `queue` and written to `dst` once due.
  struct Pipe {
    std::deque<Chunk> queue;
    size_t buffered = 0;      ///< total unsent bytes across the queue
    size_t cursor = 0;        ///< bytes of queue.front() already written
    bool eof = false;         ///< source half closed
    bool fin_sent = false;    ///< FIN propagated to the sink
    bool drop = false;        ///< silently discard this direction
    int64_t meter_micros = 0; ///< bandwidth-cap release meter
    size_t skip_left = 0;     ///< corrupt-free handshake window remaining
  };

  struct Link {
    uint64_t id = 0;
    Socket client;
    Socket upstream;          ///< invalid for black-hole links
    Pipe to_upstream;         ///< client → upstream
    Pipe to_client;           ///< upstream → client
    bool blackhole = false;
    int64_t relayed = 0;      ///< bytes written out, both directions
    uint32_t client_interest = 0;
    uint32_t upstream_interest = 0;
  };

  void LoopMain();
  void AcceptReady();
  void HandleEvent(Link& link, bool client_side, uint32_t events);
  /// Reads everything currently available from one side, shapes it into
  /// the forward pipe. Returns false when the link died.
  bool ReadSide(Link& link, bool client_side);
  /// Shapes `data` into `pipe` (corruption, latency, trickle,
  /// bandwidth), stamping release times from `now_micros`.
  void ShapeInto(Pipe& pipe, const char* data, size_t len,
                 int64_t now_micros);
  /// Writes every due chunk of `pipe` into `dst`. Returns false when
  /// the link died (write error or injected reset).
  bool FlushPipe(Link& link, Pipe& pipe, Socket& dst, int64_t now_micros);
  /// Recomputes and re-arms both fds' interest sets.
  void UpdateInterest(Link& link);
  void CloseLink(Link& link, bool hard);
  /// Earliest pending release time across all pipes, or -1 if none.
  int64_t NextRelease() const;

  ChaosProxyOptions options_;
  int port_ = 0;

  Socket listener_;
  std::unique_ptr<Epoll> epoll_;
  std::unique_ptr<EventFd> wakeup_;
  std::thread loop_;
  std::atomic<bool> running_{false};

  /// Loop-thread-only state.
  std::map<uint64_t, std::unique_ptr<Link>> links_;
  uint64_t next_id_ = 1;
  Random rng_;
  int corruptions_done_ = 0;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> forwarded_bytes_{0};
  std::atomic<int64_t> resets_injected_{0};
  std::atomic<int64_t> corrupted_bytes_{0};
  std::atomic<int64_t> dropped_bytes_{0};
  std::atomic<int64_t> blackholed_{0};
};

}  // namespace wsq::net

#endif  // WSQ_NET_CHAOSPROXY_H_
