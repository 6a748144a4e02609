// C10K churn benchmark: thousands of concurrent loopback connections
// against the epoll event-loop server, driven by a single-threaded
// non-blocking client multiplexer (the client mirrors the server's own
// readiness design: one epoll set, per-connection FrameParser).
//
// Two phases, both required to pass:
//
//   churn  — open --connections sockets, hold them ALL live at once
//            (verified against the server's live_connections gauge),
//            push a Hello and one OpenSession exchange through every
//            connection in a single write,
//            then close the whole wave and repeat --waves times. Every
//            exchange must complete; a connection that dies without a
//            response is a dropped session and fails the bench.
//
//   shed   — a second server with one dispatch worker, a low shed
//            watermark and a per-block server stall. A fleet of
//            sessions fires RequestBlock simultaneously; the worker
//            queue blows past the watermark and the loop must shed the
//            excess with retryable backpressure faults while every
//            admitted request is still served. Shed responses keep the
//            connection alive; nothing may be dropped without a shed.
//
// Per-exchange wall times from the churn phase feed --bench-json
// (BENCH_pr8.json): runs/sec and p50/p99 of connect-to-response.
//
// Flags (besides the standard BenchSession set):
//   --connections=N       concurrent connections per churn wave (2000)
//   --waves=W             churn waves (2)
//   --shed-connections=N  sessions in the shedding phase (200)
//   --shed-watermark=K    worker-queue depth that trips shedding (4)
//   --stall-ms=MS         injected per-block server stall (30)
//   --scale=S             TPC-H scale of the served table (0.01)

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "wsq/net/epoll.h"
#include "wsq/net/frame.h"
#include "wsq/net/server.h"
#include "wsq/net/socket.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

struct ChurnFlags {
  int connections = 2000;
  int waves = 2;
  int shed_connections = 200;
  int shed_watermark = 4;
  int stall_ms = 30;
  double scale = 0.01;
};

void ParseChurnFlags(int argc, char** argv, ChurnFlags* flags) {
  auto value_of = [&](const char* name, int i) -> const char* {
    const size_t n = std::strlen(name);
    if (std::strncmp(argv[i], name, n) != 0) return nullptr;
    if (argv[i][n] == '=') return argv[i] + n + 1;
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of("--connections", i))
      flags->connections = std::atoi(v);
    if (const char* v = value_of("--waves", i)) flags->waves = std::atoi(v);
    if (const char* v = value_of("--shed-connections", i))
      flags->shed_connections = std::atoi(v);
    if (const char* v = value_of("--shed-watermark", i))
      flags->shed_watermark = std::atoi(v);
    if (const char* v = value_of("--stall-ms", i)) flags->stall_ms = std::atoi(v);
    if (const char* v = value_of("--scale", i)) flags->scale = std::atof(v);
  }
  if (flags->connections < 1) flags->connections = 1;
  if (flags->waves < 1) flags->waves = 1;
  if (flags->shed_connections < 8) flags->shed_connections = 8;
  // Watermark below 2 would shed the sequential session-open preamble.
  if (flags->shed_watermark < 2) flags->shed_watermark = 2;
  if (flags->stall_ms < 1) flags->stall_ms = 1;
}

/// Raises RLIMIT_NOFILE toward `needed` fds (client + server ends plus
/// slack). The bench fails loudly on an insufficient limit instead of
/// surfacing it as mysterious connect errors mid-wave.
bool EnsureFdBudget(int needed) {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return true;  // best effort
  if (lim.rlim_cur >= static_cast<rlim_t>(needed)) return true;
  rlim_t want = static_cast<rlim_t>(needed);
  if (lim.rlim_max != RLIM_INFINITY && want > lim.rlim_max) want = lim.rlim_max;
  struct rlimit raised = lim;
  raised.rlim_cur = want;
  if (setrlimit(RLIMIT_NOFILE, &raised) != 0 ||
      want < static_cast<rlim_t>(needed)) {
    std::fprintf(stderr,
                 "FAIL: need %d fds but RLIMIT_NOFILE caps at %llu "
                 "(hard %llu) — raise ulimit -n\n",
                 needed, static_cast<unsigned long long>(want),
                 static_cast<unsigned long long>(lim.rlim_max));
    return false;
  }
  return true;
}

/// One multiplexed client connection: queued request bytes going out
/// (its Hello first), an incremental parser coming back.
struct Lane {
  net::Socket socket;
  net::FrameParser parser;
  std::string out;
  size_t out_cursor = 0;
  std::chrono::steady_clock::time_point start;
  bool done = false;
  bool dropped = false;
  bool shed = false;
};

struct DriveResult {
  int completed = 0;  // normal responses
  int shed = 0;       // retryable backpressure faults
  int dropped = 0;    // EOF / error / garbage before a response
  bool timed_out = false;
};

bool IsRetryableFault(const net::Frame& frame) {
  return frame.type == net::FrameType::kResponse &&
         (frame.flags & net::kFrameFlagSoapFault) != 0 &&
         (frame.flags & net::kFrameFlagTransientFault) != 0;
}

/// Drives every lane to its first response (or failure) through one
/// epoll set. Lanes must already be registered with tag = index and
/// their sockets non-blocking. Finished lanes keep their socket open —
/// the churn phase holds the whole wave live to prove concurrency.
DriveResult DriveLanes(std::vector<Lane>* lanes, net::Epoll* epoll,
                       double deadline_s, bool record_timings) {
  DriveResult result;
  size_t finished = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_s);
  std::vector<struct epoll_event> events(512);
  char buf[16384];

  auto finish = [&](Lane& lane, bool drop, bool shed) {
    if (lane.done) return;
    lane.done = true;
    finished++;
    epoll->Remove(lane.socket.fd());
    if (drop) {
      lane.dropped = true;
      result.dropped++;
      lane.socket.Close();
      return;
    }
    if (shed) {
      lane.shed = true;
      result.shed++;
      return;
    }
    result.completed++;
    if (record_timings) {
      if (exec::RunTimings* timings = exec::GlobalRunTimings()) {
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - lane.start;
        timings->RecordRunMs(wall.count());
      }
    }
  };

  while (finished < lanes->size()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      result.timed_out = true;
      break;
    }
    Result<int> n = epoll->Wait(events.data(),
                                static_cast<int>(events.size()), 200);
    if (!n.ok()) {
      result.timed_out = true;
      break;
    }
    for (int e = 0; e < n.value(); ++e) {
      const size_t idx = static_cast<size_t>(events[e].data.u64);
      if (idx >= lanes->size()) continue;
      Lane& lane = (*lanes)[idx];
      if (lane.done) continue;  // stale readiness after Remove
      const uint32_t ev = events[e].events;

      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        finish(lane, /*drop=*/true, /*shed=*/false);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && lane.out_cursor < lane.out.size()) {
        while (lane.out_cursor < lane.out.size()) {
          const ssize_t sent =
              ::send(lane.socket.fd(), lane.out.data() + lane.out_cursor,
                     lane.out.size() - lane.out_cursor, MSG_NOSIGNAL);
          if (sent > 0) {
            lane.out_cursor += static_cast<size_t>(sent);
            continue;
          }
          if (sent < 0 && errno == EINTR) continue;
          break;  // EAGAIN waits for the next EPOLLOUT; errors surface on read
        }
        if (lane.out_cursor >= lane.out.size()) {
          epoll->Modify(lane.socket.fd(), EPOLLIN, idx);
        }
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) {
        for (;;) {
          const ssize_t got = ::recv(lane.socket.fd(), buf, sizeof(buf), 0);
          if (got > 0) {
            std::vector<net::Frame> frames;
            Status consumed = lane.parser.Consume(buf,
                                                  static_cast<size_t>(got),
                                                  &frames);
            if (!consumed.ok()) {
              finish(lane, /*drop=*/true, /*shed=*/false);
              break;
            }
            // The HelloAck answers the lane's Hello; the lane finishes
            // on the response behind it.
            const auto response = std::find_if(
                frames.begin(), frames.end(), [](const net::Frame& frame) {
                  return frame.type != net::FrameType::kHelloAck;
                });
            if (response != frames.end()) {
              finish(lane, /*drop=*/false,
                     /*shed=*/IsRetryableFault(*response));
              break;
            }
            continue;
          }
          if (got == 0) {  // EOF before a response
            finish(lane, /*drop=*/true, /*shed=*/false);
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          finish(lane, /*drop=*/true, /*shed=*/false);
          break;
        }
      }
    }
  }
  return result;
}

std::string FrameBytes(net::FrameType type, const std::string& payload) {
  net::Frame frame;
  frame.type = type;
  frame.payload = payload;
  std::string raw;
  Status appended = net::AppendFrameBytes(frame, &raw);
  if (!appended.ok()) std::abort();
  return raw;
}

std::string RequestBytes(const std::string& payload) {
  return FrameBytes(net::FrameType::kRequest, payload);
}

/// The Hello every connection opens with, advertising plain SOAP.
std::string HelloBytes() { return FrameBytes(net::FrameType::kHello, "soap"); }

std::unique_ptr<net::WsqServer> StartServer(ServiceContainer* container,
                                            net::WsqServerOptions options) {
  auto server = std::make_unique<net::WsqServer>(container, std::move(options));
  if (Status s = server->Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  return server;
}

int Main(int argc, char** argv) {
  bench::BenchSession session(argc, argv);
  ChurnFlags flags;
  ParseChurnFlags(argc, argv, &flags);

  bench::PrintHeader(
      "c10k_churn",
      "thousands of concurrent loopback connections with churn against "
      "the epoll event-loop server, then a shedding phase past the "
      "worker-queue watermark",
      "every churn session completes with the whole wave live at once; "
      "the shed phase sheds with retryable faults and drops nothing");

  const int fd_budget = 2 * std::max(flags.connections,
                                     flags.shed_connections) + 256;
  if (!EnsureFdBudget(fd_budget)) return 1;

  TpchGenOptions gen;
  gen.scale = flags.scale;
  gen.seed = 7;
  std::shared_ptr<Table> customer = GenerateCustomer(gen).value();
  Dbms dbms;
  if (Status s = dbms.RegisterTable(customer); !s.ok()) {
    std::fprintf(stderr, "table registration failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  DataService service(&dbms);
  LoadModelConfig load;
  load.noise_sigma = 0.0;
  ServiceContainer container(&service, load, 7);

  int failures = 0;

  // -------------------------------------------------------------------
  // Phase 1: churn. Full waves of concurrent connections, one exchange
  // each, all held live simultaneously before the wave closes.
  // -------------------------------------------------------------------
  net::WsqServerOptions churn_options;
  churn_options.simulate_service_time = false;
  churn_options.codec =
      codec::CodecChoice{codec::CodecKind::kBinary, /*compress_blocks=*/true};
  std::unique_ptr<net::WsqServer> server = StartServer(&container,
                                                       churn_options);
  if (server == nullptr) return 1;
  const int port = server->port();
  std::printf("churn server on 127.0.0.1:%d (scale=%g)\n", port, flags.scale);

  OpenSessionRequest open;
  open.table = "customer";
  const std::string open_bytes =
      HelloBytes() + RequestBytes(EncodeOpenSession(open));

  int64_t peak_live = 0;
  int total_exchanges = 0;
  for (int wave = 0; wave < flags.waves; ++wave) {
    net::Epoll epoll;
    if (!epoll.valid()) {
      std::fprintf(stderr, "FAIL: epoll_create failed\n");
      return 1;
    }
    std::vector<Lane> lanes(flags.connections);
    int connect_failures = 0;
    for (int i = 0; i < flags.connections; ++i) {
      Lane& lane = lanes[i];
      lane.start = std::chrono::steady_clock::now();
      Result<net::Socket> conn = net::TcpConnect("127.0.0.1", port, 10000.0);
      if (!conn.ok()) {
        lane.done = true;
        lane.dropped = true;
        connect_failures++;
        continue;
      }
      lane.socket = std::move(conn).value();
      net::SetNonBlocking(lane.socket.fd(), true);
      lane.out = open_bytes;
      epoll.Add(lane.socket.fd(), EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                static_cast<uint64_t>(i));
    }

    DriveResult outcome = DriveLanes(&lanes, &epoll, /*deadline_s=*/120.0,
                                     /*record_timings=*/true);
    outcome.dropped += connect_failures;

    // Everyone answered and every socket still open: the concurrency
    // proof. The server gauge counts its side of the same wave.
    const int64_t live = server->live_connections();
    peak_live = std::max(peak_live, live);
    total_exchanges += outcome.completed;

    std::printf(
        "wave %d: %d connections, %d completed, %d shed, %d dropped, "
        "server live=%lld\n",
        wave, flags.connections, outcome.completed, outcome.shed,
        outcome.dropped, static_cast<long long>(live));
    if (outcome.timed_out) {
      std::fprintf(stderr, "FAIL: wave %d timed out\n", wave);
      failures++;
    }
    if (outcome.dropped > 0 || outcome.shed > 0 ||
        outcome.completed != flags.connections) {
      std::fprintf(stderr,
                   "FAIL: wave %d lost sessions (%d dropped, %d shed)\n",
                   wave, outcome.dropped, outcome.shed);
      failures++;
    }
    if (live < flags.connections) {
      std::fprintf(stderr,
                   "FAIL: wave %d peak concurrency %lld < %d — the wave "
                   "was not fully live at once\n",
                   wave, static_cast<long long>(live), flags.connections);
      failures++;
    }
    // The wave closes here (Lane destructors), churning every fd.
  }
  server->Stop();
  std::printf("churn: %d exchanges total, peak live connections %lld\n",
              total_exchanges, static_cast<long long>(peak_live));

  // -------------------------------------------------------------------
  // Phase 2: shedding. One worker, a low watermark, a per-block stall:
  // the flood must be shed with retryable faults, never dropped.
  // -------------------------------------------------------------------
  net::WsqServerOptions shed_options;
  shed_options.simulate_service_time = false;
  shed_options.worker_threads = 1;
  shed_options.admission.shed_queue_watermark =
      static_cast<size_t>(flags.shed_watermark);
  FaultSpec stall;
  stall.kind = FaultKind::kServerStall;
  stall.first_block = 0;
  stall.last_block = -1;
  stall.stall_ms = flags.stall_ms;
  shed_options.fault_plan.specs.push_back(stall);
  std::unique_ptr<net::WsqServer> shed_server = StartServer(&container,
                                                            shed_options);
  if (shed_server == nullptr) return 1;
  const int shed_port = shed_server->port();
  std::printf("shed server on 127.0.0.1:%d (watermark=%d, stall=%dms)\n",
              shed_port, flags.shed_watermark, flags.stall_ms);

  // Sequential session-open preamble: blocking round-trips keep the
  // dispatch queue below the watermark, so nothing sheds yet.
  std::vector<Lane> shed_lanes(flags.shed_connections);
  int preamble_failures = 0;
  for (int i = 0; i < flags.shed_connections; ++i) {
    Lane& lane = shed_lanes[i];
    Result<net::Socket> conn = net::TcpConnect("127.0.0.1", shed_port, 10000.0);
    if (!conn.ok()) {
      lane.done = true;
      preamble_failures++;
      continue;
    }
    lane.socket = std::move(conn).value();
    lane.socket.set_io_timeout_ms(10000.0);
    const std::string hello_and_open =
        HelloBytes() + RequestBytes(EncodeOpenSession(open));
    Status written = net::WriteAll(lane.socket, hello_and_open.data(),
                                   hello_and_open.size());
    Result<net::Frame> reply =
        written.ok() ? net::ReadFrame(lane.socket)
                     : Result<net::Frame>(written);
    if (reply.ok() && reply.value().type == net::FrameType::kHelloAck) {
      reply = net::ReadFrame(lane.socket);
    }
    if (!reply.ok()) {
      lane.done = true;
      preamble_failures++;
      continue;
    }
    Result<XmlNode> envelope = ParseEnvelope(reply.value().payload);
    Result<OpenSessionResponse> opened =
        envelope.ok() ? DecodeOpenSessionResponse(envelope.value())
                      : Result<OpenSessionResponse>(envelope.status());
    if (!opened.ok()) {
      lane.done = true;
      preamble_failures++;
      continue;
    }
    RequestBlockRequest block;
    block.session_id = opened.value().session_id;
    block.block_size = 20;
    block.sequence = 0;
    lane.out = RequestBytes(EncodeRequestBlock(block));
  }
  if (preamble_failures > 0) {
    std::fprintf(stderr, "FAIL: %d shed-phase sessions failed to open\n",
                 preamble_failures);
    failures++;
  }

  // The flood: every session fires its stalled block request at once.
  net::Epoll shed_epoll;
  for (int i = 0; i < flags.shed_connections; ++i) {
    Lane& lane = shed_lanes[i];
    if (lane.done) continue;
    net::SetNonBlocking(lane.socket.fd(), true);
    lane.start = std::chrono::steady_clock::now();
    shed_epoll.Add(lane.socket.fd(), EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                   static_cast<uint64_t>(i));
  }
  DriveResult shed_outcome = DriveLanes(&shed_lanes, &shed_epoll,
                                        /*deadline_s=*/120.0,
                                        /*record_timings=*/false);
  const int64_t server_sheds = shed_server->sheds();
  std::printf(
      "shed: %d requests, %d served, %d shed (server counter %lld), "
      "%d dropped\n",
      flags.shed_connections - preamble_failures, shed_outcome.completed,
      shed_outcome.shed, static_cast<long long>(server_sheds),
      shed_outcome.dropped);
  if (shed_outcome.timed_out) {
    std::fprintf(stderr, "FAIL: shed phase timed out\n");
    failures++;
  }
  if (shed_outcome.dropped > 0) {
    std::fprintf(stderr,
                 "FAIL: %d request(s) dropped without a shed response\n",
                 shed_outcome.dropped);
    failures++;
  }
  if (shed_outcome.shed == 0 || server_sheds == 0) {
    std::fprintf(stderr,
                 "FAIL: no shedding observed past the watermark\n");
    failures++;
  }
  if (shed_outcome.completed == 0) {
    std::fprintf(stderr, "FAIL: shedding starved every admitted request\n");
    failures++;
  }
  shed_server->Stop();

  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf(
      "all %d waves x %d connections churned and the watermark shed "
      "cleanly\n",
      flags.waves, flags.connections);
  return 0;
}

}  // namespace
}  // namespace wsq

int main(int argc, char** argv) { return wsq::Main(argc, argv); }
