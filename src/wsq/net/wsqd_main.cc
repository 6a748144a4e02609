// wsqd — the standalone wsq data-service daemon.
//
// Hosts the same DataService/ServiceContainer stack the simulated
// transport dispatches into, behind the framed TCP wire protocol
// (net/frame.h), so any TcpWsClient / LiveBackend / `--live` example can
// run the paper's pull protocol over a real network:
//
//   wsqd --port=9090 --scale=0.1 --profile=loaded --fault-plan=burst
//
// The daemon prints "wsqd listening on port N" once ready (scripts
// scrape the ephemeral port from it) and serves until SIGINT (immediate
// stop) or SIGTERM (graceful drain: stop accepting, kGoaway idle
// connections, finish in-flight work, then stop — bounded by
// --drain-timeout-s).

#include <csignal>
#include <cstdint>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "wsq/codec/codec.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/net/server.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/server/container.h"
#include "wsq/server/data_service.h"
#include "wsq/server/dbms.h"
#include "wsq/server/load_model.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_dump_stats = 0;

void HandleSignal(int) { g_stop = 1; }
void HandleDrainSignal(int) { g_drain = 1; }
void HandleStatsSignal(int) { g_dump_stats = 1; }

struct WsqdFlags {
  int port = 9090;
  double scale = 0.05;
  uint64_t seed = 7;
  std::string profile = "unloaded";
  std::string fault_plan = "none";
  std::string codec = "binary";
  int worker_threads = 8;
  bool simulate_service_time = true;
  /// Also write the bound port here after startup (ephemeral-port
  /// consumers that cannot scrape stdout).
  std::string port_file;
  /// Live telemetry: write the server's stats JSON snapshot here every
  /// stats_interval_s seconds (0 = only on SIGUSR1 and at shutdown).
  std::string stats_out;
  int stats_interval_s = 0;
  /// Admission control (0 = off for each knob).
  int max_connections = 0;
  double rate_limit = 0.0;
  double rate_limit_burst = 0.0;
  int shed_watermark = 0;
  /// SIGTERM drain budget: in-flight work gets this long to finish
  /// before the server stops hard.
  double drain_timeout_s = 10.0;
  /// Half-open detection: evict connections idle this long (each gets a
  /// ping at half of it first). 0 = off.
  double idle_timeout_s = 0.0;
  /// Evict DataService sessions (and their fault/stats state) untouched
  /// this long. 0 = off.
  double session_ttl_s = 0.0;
};

/// One stats snapshot to `path` (atomic enough for pollers: write to a
/// temp name, then rename over the target).
void WriteStatsSnapshot(wsq::net::WsqServer& server, const std::string& path) {
  const std::string body = server.StatsJson();
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "wsqd: cannot open %s\n", tmp.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "wsqd: cannot rename %s -> %s\n", tmp.c_str(),
                 path.c_str());
  }
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: wsqd [--port=N] [--scale=F] [--seed=N] [--profile=NAME]\n"
      "            [--fault-plan=NAME] [--codec=NAME] [--workers=N]\n"
      "            [--no-service-sleep] [--port-file=PATH]\n"
      "            [--stats-out=PATH] [--stats-interval-s=N]\n"
      "            [--max-connections=N] [--rate-limit=F]\n"
      "            [--rate-limit-burst=F] [--shed-watermark=N]\n"
      "            [--drain-timeout-s=F] [--idle-timeout-s=F]\n"
      "            [--session-ttl-s=F]\n"
      "\n"
      "  --port=N           TCP port to listen on; 0 = ephemeral (default "
      "9090)\n"
      "  --port-file=PATH   also write the bound port to PATH once "
      "listening\n"
      "  --stats-out=PATH   write the live stats JSON snapshot to PATH on "
      "SIGUSR1,\n"
      "                     every --stats-interval-s seconds, and at "
      "shutdown\n"
      "  --stats-interval-s=N periodic stats snapshot interval (default 0 = "
      "off)\n"
      "  --scale=F          TPC-H scale factor for the hosted Customer/Orders "
      "tables (default 0.05)\n"
      "  --seed=N           data + load-noise seed (default 7)\n"
      "  --profile=NAME     server load profile: unloaded | loaded | memory "
      "(paper conf1.1/1.2/1.3)\n"
      "  --fault-plan=NAME  server-side chaos preset (none | burst | latency "
      "| stall | flaky | outage | resets)\n"
      "  --codec=NAME       richest block codec offered in negotiation: soap "
      "| binary | binary+lz (default binary; clients that don't ask still "
      "get SOAP)\n"
      "  --workers=N        dispatch worker threads (default 8)\n"
      "  --no-service-sleep serve at raw dispatch speed instead of sleeping "
      "the modeled service time\n"
      "  --max-connections=N  reject connections beyond N with a retryable "
      "fault (default 0 = unlimited)\n"
      "  --rate-limit=F     per-client-IP new-connection rate per second "
      "(token bucket; default 0 = unlimited)\n"
      "  --rate-limit-burst=F  token-bucket burst capacity (default "
      "max(1, rate))\n"
      "  --shed-watermark=N shed requests with a retryable fault while N "
      "dispatches are queued or running (default 0 = never)\n"
      "  --drain-timeout-s=F  SIGTERM grace: finish in-flight work within F "
      "seconds before stopping hard (default 10)\n"
      "  --idle-timeout-s=F evict connections idle for F seconds; each is "
      "pinged at F/2 first (default 0 = never)\n"
      "  --session-ttl-s=F  evict sessions (cursor, replay cache, stats) "
      "untouched for F seconds (default 0 = never)\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

/// The paper's server-side configurations as LoadModelConfig presets:
/// "unloaded" (conf1.1), "loaded" (conf1.2: concurrent queries sharing
/// CPU/memory), "memory" (conf1.3: memory-intensive jobs shrinking the
/// buffer).
bool LoadProfileByName(const std::string& name, wsq::LoadModelConfig* out) {
  wsq::LoadModelConfig config;
  if (name == "unloaded") {
    *out = config;
    return true;
  }
  if (name == "loaded") {
    config.concurrent_queries = 3;
    *out = config;
    return true;
  }
  if (name == "memory") {
    config.concurrent_jobs = 4;
    config.memory_pressure = 0.5;
    *out = config;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  WsqdFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--port", &value)) {
      flags.port = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--scale", &value)) {
      flags.scale = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      flags.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--profile", &value)) {
      flags.profile = value;
    } else if (ParseFlag(argv[i], "--fault-plan", &value)) {
      flags.fault_plan = value;
    } else if (ParseFlag(argv[i], "--codec", &value)) {
      flags.codec = value;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      flags.worker_threads = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--port-file", &value)) {
      flags.port_file = value;
    } else if (ParseFlag(argv[i], "--stats-out", &value)) {
      flags.stats_out = value;
    } else if (ParseFlag(argv[i], "--stats-interval-s", &value)) {
      flags.stats_interval_s = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--max-connections", &value)) {
      flags.max_connections = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--rate-limit", &value)) {
      flags.rate_limit = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--rate-limit-burst", &value)) {
      flags.rate_limit_burst = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--shed-watermark", &value)) {
      flags.shed_watermark = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--drain-timeout-s", &value)) {
      flags.drain_timeout_s = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--idle-timeout-s", &value)) {
      flags.idle_timeout_s = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--session-ttl-s", &value)) {
      flags.session_ttl_s = std::atof(value.c_str());
    } else if (std::strcmp(argv[i], "--no-service-sleep") == 0) {
      flags.simulate_service_time = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "wsqd: unknown flag %s\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }

  wsq::LoadModelConfig load;
  if (!LoadProfileByName(flags.profile, &load)) {
    std::fprintf(stderr, "wsqd: unknown --profile=%s\n",
                 flags.profile.c_str());
    return 2;
  }
  wsq::Result<wsq::FaultPlan> plan =
      wsq::FaultPlan::FromName(flags.fault_plan);
  if (!plan.ok()) {
    std::fprintf(stderr, "wsqd: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  wsq::Result<wsq::codec::CodecChoice> codec =
      wsq::codec::CodecChoice::FromName(flags.codec);
  if (!codec.ok()) {
    std::fprintf(stderr, "wsqd: %s\n", codec.status().ToString().c_str());
    return 2;
  }

  wsq::TpchGenOptions gen;
  gen.scale = flags.scale;
  gen.seed = flags.seed;
  wsq::Result<std::shared_ptr<wsq::Table>> customer =
      wsq::GenerateCustomer(gen);
  wsq::Result<std::shared_ptr<wsq::Table>> orders = wsq::GenerateOrders(gen);
  if (!customer.ok() || !orders.ok()) {
    std::fprintf(stderr, "wsqd: table generation failed\n");
    return 1;
  }

  wsq::Dbms dbms;
  if (!dbms.RegisterTable(customer.value()).ok() ||
      !dbms.RegisterTable(orders.value()).ok()) {
    std::fprintf(stderr, "wsqd: table registration failed\n");
    return 1;
  }
  wsq::DataService service(&dbms);
  wsq::ServiceContainer container(&service, load, flags.seed);

  wsq::net::WsqServerOptions server_options;
  server_options.port = flags.port;
  server_options.worker_threads = flags.worker_threads;
  server_options.fault_plan = std::move(plan).value();
  server_options.fault_seed = flags.seed;
  server_options.simulate_service_time = flags.simulate_service_time;
  server_options.codec = codec.value();
  server_options.admission.max_connections = flags.max_connections;
  server_options.admission.rate_limit_per_sec = flags.rate_limit;
  server_options.admission.rate_limit_burst = flags.rate_limit_burst;
  server_options.admission.shed_queue_watermark = flags.shed_watermark;
  server_options.idle_timeout_ms = flags.idle_timeout_s * 1000.0;
  server_options.session_ttl_ms = flags.session_ttl_s * 1000.0;
  wsq::net::WsqServer server(&container, server_options);

  wsq::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "wsqd: %s\n", started.ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "wsqd: profile=%s fault-plan=%s codec<=%s scale=%g (%lld "
               "customer rows)\n",
               flags.profile.c_str(), flags.fault_plan.c_str(),
               flags.codec.c_str(), flags.scale,
               static_cast<long long>(customer.value()->num_rows()));
  // The machine-readable ready line scripts wait for and scrape.
  std::printf("wsqd listening on port %d\n", server.port());
  std::fflush(stdout);
  if (!flags.port_file.empty()) {
    std::FILE* out = std::fopen(flags.port_file.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "wsqd: cannot open --port-file=%s\n",
                   flags.port_file.c_str());
      return 1;
    }
    std::fprintf(out, "%d\n", server.port());
    std::fclose(out);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGUSR1, HandleStatsSignal);
  int64_t ticks = 0;  // 100 ms each
  while (g_stop == 0 && g_drain == 0) {
    struct timespec ts {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    ++ticks;
    const bool periodic_due =
        !flags.stats_out.empty() && flags.stats_interval_s > 0 &&
        ticks % (static_cast<int64_t>(flags.stats_interval_s) * 10) == 0;
    if (g_dump_stats != 0 || periodic_due) {
      g_dump_stats = 0;
      if (!flags.stats_out.empty()) {
        WriteStatsSnapshot(server, flags.stats_out);
      } else {
        // SIGUSR1 without --stats-out: dump to stderr — still useful
        // for a quick look at a running daemon.
        std::fprintf(stderr, "%s\n", server.StatsJson().c_str());
      }
    }
  }

  // Final snapshot before teardown, so a consumer always sees the
  // complete run even when it never signaled.
  if (!flags.stats_out.empty()) WriteStatsSnapshot(server, flags.stats_out);
  if (g_drain != 0) {
    // SIGTERM: graceful drain. Clients mid-query see a retryable
    // goodbye (kGoaway / shed fault / FIN) and resume against the
    // replacement daemon; sessions would persist across a Start in the
    // same process.
    std::fprintf(stderr, "wsqd: draining (timeout %gs)\n",
                 flags.drain_timeout_s);
    const bool clean = server.Drain(flags.drain_timeout_s);
    std::fprintf(stderr, "wsqd: drain %s\n",
                 clean ? "complete" : "timed out; stopped hard");
  } else {
    server.Stop();
  }
  if (!flags.port_file.empty()) {
    // A stale port file must not point a launcher at a dead (or worse,
    // someone else's) port.
    std::remove(flags.port_file.c_str());
  }
  std::fprintf(stderr, "wsqd: served %lld exchanges on %lld connections "
                       "(%lld injected faults)\n",
               static_cast<long long>(server.exchanges_served()),
               static_cast<long long>(server.connections_accepted()),
               static_cast<long long>(server.faults_injected()));
  return 0;
}
