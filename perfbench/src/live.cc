// Live workloads: an in-process WsqServer on loopback and two
// closed-loop client connections pulling the customer table through
// TcpWsClient + BlockFetcher with a FixedController. One op is one
// block exchange. The server runs with simulate_service_time off, so
// wall time measures the program rather than the LoadModel's sleeps.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "probe.h"
#include "timed.h"
#include "workload.h"
#include "wsq/backend/fetch_trace.h"
#include "wsq/client/block_fetcher.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/net/server.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/server/container.h"
#include "wsq/server/data_service.h"
#include "wsq/server/dbms.h"

namespace perfbench {
namespace {

using wsq::Status;

constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr int kSetupReps = 21;

/// Everything one in-process server needs, destroyed server-first.
struct LiveServer {
  std::shared_ptr<wsq::Table> table;
  wsq::Dbms dbms;
  std::unique_ptr<wsq::DataService> service;
  std::unique_ptr<wsq::ServiceContainer> container;
  std::unique_ptr<wsq::net::WsqServer> server;
};

wsq::codec::CodecChoice CodecOf(const LiveShape& shape) {
  wsq::codec::CodecChoice choice;
  choice.kind =
      shape.binary ? wsq::codec::CodecKind::kBinary : wsq::codec::CodecKind::kSoap;
  return choice;
}

/// Set-up as the user pays it: generate the table, start the server,
/// complete the first connection handshake.
Status StartServer(const LiveShape& shape, uint64_t seed, LiveServer* live,
                   double* generate_s, double* setup_s) {
  const int64_t t0 = NowNs();
  wsq::TpchGenOptions gen;
  gen.scale = shape.scale;
  gen.seed = seed;
  wsq::Result<std::shared_ptr<wsq::Table>> table = wsq::GenerateCustomer(gen);
  if (!table.ok()) return table.status();
  live->table = table.value();
  *generate_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (Status s = live->dbms.RegisterTable(live->table); !s.ok()) return s;
  live->service = std::make_unique<wsq::DataService>(&live->dbms);
  live->container = std::make_unique<wsq::ServiceContainer>(
      live->service.get(), wsq::LoadModelConfig{}, seed);
  wsq::net::WsqServerOptions options;
  options.codec = CodecOf(shape);
  options.simulate_service_time = false;
  options.worker_threads = kServerWorkers;
  live->server = std::make_unique<wsq::net::WsqServer>(live->container.get(),
                                                       std::move(options));
  if (Status s = live->server->Start(); !s.ok()) return s;
  wsq::TcpWsClientOptions client_options;
  client_options.codec = CodecOf(shape);
  wsq::TcpWsClient first("127.0.0.1", live->server->port(), client_options);
  if (Status s = first.Connect(); !s.ok()) return s;
  *setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return Status::Ok();
}

/// Pulls the whole table once, keeping the rows, and compares them with
/// the generated table.
Status VerifyContent(const LiveShape& shape, const LiveServer& live) {
  wsq::TcpWsClientOptions client_options;
  client_options.codec = CodecOf(shape);
  wsq::TcpWsClient client("127.0.0.1", live.server->port(), client_options);
  wsq::FixedController controller(shape.block_size);
  wsq::BlockFetcher fetcher(&client, &controller);
  wsq::ScanProjectQuery query;
  query.table_name = "customer";
  wsq::TupleSerializer serializer(live.table->schema());
  std::vector<wsq::Tuple> rows;
  wsq::Result<wsq::FetchOutcome> out = fetcher.Run(query, &serializer, &rows);
  if (!out.ok()) return out.status();
  // Compared in serialized form: SOAP carries doubles as text, so the
  // text is what must survive the trip.
  const std::vector<wsq::Tuple>& want = live.table->rows();
  if (rows.size() != want.size()) {
    return Status::Internal("fetched " + std::to_string(rows.size()) +
                            " rows of " + std::to_string(want.size()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    wsq::Result<std::string> got = serializer.Serialize(rows[i]);
    wsq::Result<std::string> expected = serializer.Serialize(want[i]);
    if (!got.ok() || !expected.ok() || got.value() != expected.value()) {
      return Status::Internal("row " + std::to_string(i) +
                              " differs from the generated table");
    }
  }
  return Status::Ok();
}

/// Server counters read at a phase boundary.
struct ServerCounters {
  int64_t exchanges = 0;
  int64_t replay_hits = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
};

int64_t JsonField(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

ServerCounters ReadCounters(wsq::net::WsqServer& server) {
  ServerCounters c;
  c.exchanges = server.exchanges_served();
  c.replay_hits = server.replay_hits();
  // Byte totals are only exposed through the stats plane; its first
  // "bytes_in"/"bytes_out" fields are the server-wide totals.
  const std::string stats = server.StatsJson();
  c.bytes_in = JsonField(stats, "bytes_in");
  c.bytes_out = JsonField(stats, "bytes_out");
  return c;
}

/// What one client thread measured in one mode (untraced or traced).
struct ModeData {
  std::vector<TimedSample> block_ms;
  std::vector<TimedSample> query_ms;
  std::vector<OpInterval> intervals;
  int64_t queries = 0;
  int64_t blocks = 0;
  int64_t tuples = 0;
  int64_t retries = 0;
  int64_t attempted_ops = 0;
  int64_t failed_ops = 0;
  std::vector<std::string> errors;

  void Merge(const ModeData& o) {
    block_ms.insert(block_ms.end(), o.block_ms.begin(), o.block_ms.end());
    query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
    intervals.insert(intervals.end(), o.intervals.begin(), o.intervals.end());
    queries += o.queries;
    blocks += o.blocks;
    tuples += o.tuples;
    retries += o.retries;
    attempted_ops += o.attempted_ops;
    failed_ops += o.failed_ops;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

/// Per-layer samples only the traced mode collects.
struct LayerData {
  std::vector<double> transit_us;
  std::vector<double> residence_us;
  std::vector<double> session_us;
  std::vector<double> loop_us_per_op;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int64_t block_request_bytes = 0;
  int64_t block_response_bytes = 0;
  DecisionStats decisions;

  void Merge(const LayerData& o) {
    transit_us.insert(transit_us.end(), o.transit_us.begin(),
                      o.transit_us.end());
    residence_us.insert(residence_us.end(), o.residence_us.begin(),
                        o.residence_us.end());
    session_us.insert(session_us.end(), o.session_us.begin(),
                      o.session_us.end());
    loop_us_per_op.insert(loop_us_per_op.end(), o.loop_us_per_op.begin(),
                          o.loop_us_per_op.end());
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    block_request_bytes += o.block_request_bytes;
    block_response_bytes += o.block_response_bytes;
    decisions.decisions += o.decisions.decisions;
    decisions.ns += o.decisions.ns;
  }
};

struct Lane {
  ModeData modes[2];  // [0] untraced, [1] traced
  LayerData layer;
  SpanLog spans;
  std::vector<CallRecord> calls;  // the current query's calls
};

struct QueryShape {
  int port = 0;
  int64_t rss_mark_queries = 0;
  wsq::TcpWsClientOptions client_options;
  wsq::ScanProjectQuery query;
  int64_t rows = 0;
  int64_t block_size = 0;
  int64_t expected_blocks = 0;
};

/// Checks one finished fetch against the table: every tuple, in
/// ceil(N/b) blocks of b (the last one short), no retries, and a
/// consistent RunTrace.
Status CheckOutcome(const QueryShape& q, const wsq::FetchOutcome& out) {
  if (out.total_tuples != q.rows || out.total_blocks != q.expected_blocks) {
    return Status::Internal(
        "query returned " + std::to_string(out.total_tuples) + " tuples in " +
        std::to_string(out.total_blocks) + " blocks, expected " +
        std::to_string(q.rows) + " in " + std::to_string(q.expected_blocks));
  }
  for (size_t i = 0; i < out.trace.size(); ++i) {
    const int64_t want =
        std::min(q.block_size, q.rows - static_cast<int64_t>(i) * q.block_size);
    if (out.trace[i].received_tuples != want) {
      return Status::Internal("block " + std::to_string(i) + " carried " +
                              std::to_string(out.trace[i].received_tuples) +
                              " tuples, expected " + std::to_string(want));
    }
  }
  if (out.retries != 0) {
    return Status::Internal("query needed " + std::to_string(out.retries) +
                            " retries");
  }
  return wsq::RunTraceFromFetch(out, "live", "fixed").CheckConsistent();
}

/// One query: connect (Hello on binary), open, all blocks, close.
void RunOneQuery(const QueryShape& q, bool traced, Lane* lane) {
  ModeData& mode = lane->modes[traced ? 1 : 0];
  mode.attempted_ops += q.expected_blocks;
  static std::atomic<uint64_t> next_query_id{0};
  const uint64_t query_id = ++next_query_id;

  const int64_t q0 = NowNs();
  wsq::TcpWsClient client("127.0.0.1", q.port, q.client_options);
  std::optional<wsq::FixedController> fixed;
  std::optional<TimedController> timed_controller;
  std::optional<TimedTransport> timed_transport;
  DecisionStats decisions;
  wsq::Controller* controller = nullptr;
  wsq::WsCallTransport* transport = &client;
  if (traced) {
    lane->calls.clear();
    timed_controller.emplace(
        std::make_unique<wsq::FixedController>(q.block_size), &decisions);
    controller = &*timed_controller;
    timed_transport.emplace(&client, &lane->calls);
    transport = &*timed_transport;
  } else {
    fixed.emplace(q.block_size);
    controller = &*fixed;
  }
  const int64_t c0 = NowNs();
  Status connected = client.Connect();
  const int64_t c1 = NowNs();
  wsq::Result<wsq::FetchOutcome> out = wsq::Status::Internal("not run");
  if (connected.ok()) {
    wsq::BlockFetcher fetcher(transport, controller);
    out = fetcher.Run(q.query);
  }
  const int64_t q1 = NowNs();

  Status verdict = !connected.ok() ? connected
                   : !out.ok()     ? out.status()
                                   : CheckOutcome(q, out.value());
  if (verdict.ok() && traced &&
      lane->calls.size() != static_cast<size_t>(q.expected_blocks + 2)) {
    verdict = Status::Internal("traced query made " +
                               std::to_string(lane->calls.size()) + " calls");
  }
  if (!verdict.ok()) {
    mode.failed_ops += q.expected_blocks;
    if (mode.errors.size() < 5) mode.errors.push_back(verdict.ToString());
    return;
  }

  const wsq::FetchOutcome& fetch = out.value();
  mode.queries += 1;
  mode.blocks += fetch.total_blocks;
  mode.tuples += fetch.total_tuples;
  mode.retries += fetch.retries;
  // Place each exchange on the timeline: its round trip is known; the
  // time between round trips (open, close, the pull loop's own work) is
  // spread evenly over the gaps.
  double round_trips_ms = 0.0;
  for (const wsq::BlockTrace& block : fetch.trace) {
    round_trips_ms += block.response_time_ms;
  }
  const double gap_ns =
      std::max(0.0, static_cast<double>(q1 - c1) - round_trips_ms * 1e6) /
      static_cast<double>(fetch.trace.size() + 2);
  double at_ns = static_cast<double>(c1) + gap_ns;
  for (const wsq::BlockTrace& block : fetch.trace) {
    at_ns += gap_ns + block.response_time_ms * 1e6;
    mode.block_ms.push_back(
        {static_cast<int64_t>(at_ns), block.response_time_ms});
  }
  mode.query_ms.push_back({q1, static_cast<double>(q1 - q0) / 1e6});
  mode.intervals.push_back(
      {q0, q1, static_cast<double>(fetch.total_blocks)});
  if (!traced) return;

  // Calls come in order: open, the blocks, close (no retries, checked).
  LayerData& layer = lane->layer;
  const std::vector<CallRecord>& calls = lane->calls;
  const uint64_t root =
      lane->spans.Add("query", query_id, 0, q0, q1, fetch.total_blocks);
  lane->spans.Add("connect", query_id, root, c0, c1);
  int64_t call_ns = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    const CallRecord& c = calls[i];
    const bool is_block = i > 0 && i + 1 < calls.size();
    const char* name = i == 0 ? "call.open" : is_block ? "call.block"
                                                       : "call.close";
    lane->spans.Add(name, query_id, root, c.start_ns, c.end_ns,
                    c.response_bytes);
    call_ns += c.end_ns - c.start_ns;
    layer.request_bytes += c.request_bytes;
    layer.response_bytes += c.response_bytes;
    if (!is_block) continue;
    const double round_trip_us = static_cast<double>(c.end_ns - c.start_ns) / 1e3;
    layer.transit_us.push_back(round_trip_us - c.service_ms * 1e3);
    layer.residence_us.push_back(c.service_ms * 1e3);
    layer.block_request_bytes += c.request_bytes;
    layer.block_response_bytes += c.response_bytes;
  }
  const CallRecord& open = calls.front();
  const CallRecord& close = calls.back();
  layer.session_us.push_back(
      static_cast<double>((c1 - c0) + (open.end_ns - open.start_ns) +
                          (close.end_ns - close.start_ns)) /
      1e3);
  // The pull loop's own work between calls: request encode, response
  // decode, bookkeeping. Controller time is reported separately.
  const int64_t fetch_ns = q1 - c1;
  layer.loop_us_per_op.push_back(
      static_cast<double>(fetch_ns - call_ns - decisions.ns) / 1e3 /
      static_cast<double>(fetch.total_blocks));
  layer.decisions.decisions += decisions.decisions;
  layer.decisions.ns += decisions.ns;
}

/// Peak RSS once a fixed number of queries has completed (see
/// LiveShape::rss_mark_queries).
struct RssMark {
  std::atomic<int64_t> queries{0};
  std::atomic<double> peak_rss_mb{0.0};
};

void RunPhase(const QueryShape& q, bool traced, int64_t deadline_ns,
              std::vector<Lane>* lanes, RssMark* mark) {
  std::vector<std::thread> threads;
  for (Lane& lane : *lanes) {
    threads.emplace_back([&q, traced, deadline_ns, &lane, mark] {
      while (NowNs() < deadline_ns) {
        RunOneQuery(q, traced, &lane);
        if (mark->queries.fetch_add(1) + 1 == q.rss_mark_queries) {
          mark->peak_rss_mb.store(ReadUsage().peak_rss_mb);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

WorkloadResult RunLive(const LiveShape& shape, const RunOptions& options) {
  WorkloadResult result;

  // Set-up, repeated; the last server is the one measured.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<LiveServer> live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) PauseBetweenSetups();
    live.reset();
    live = std::make_unique<LiveServer>();
    double gen = 0.0, setup = 0.0;
    if (Status s = StartServer(shape, options.seed, live.get(), &gen, &setup);
        !s.ok()) {
      result.Fail("server set-up: " + s.ToString());
      return result;
    }
    generate_s.push_back(gen);
    setup_s.push_back(setup);
  }
  if (Status s = VerifyContent(shape, *live); !s.ok()) {
    result.Fail("content check: " + s.ToString());
    return result;
  }

  QueryShape q;
  q.port = live->server->port();
  q.rss_mark_queries = shape.rss_mark_queries;
  q.client_options.codec = CodecOf(shape);
  q.query.table_name = "customer";
  q.rows = static_cast<int64_t>(live->table->num_rows());
  q.block_size = shape.block_size;
  q.expected_blocks = (q.rows + q.block_size - 1) / q.block_size;

  const std::vector<bool> plan = PhasePlan(options.trace);
  const int64_t phase_ns = static_cast<int64_t>(
      options.seconds * 1e9 / static_cast<double>(plan.size()));

  std::vector<Lane> lanes(kClients);
  RssMark rss_mark;
  std::vector<Phase> phases[2];
  ServerCounters delta[2];
  int64_t traced_ops = 0;
  Usage traced_usage;  // summed over traced phases
  AllocCount traced_allocs;
  const ServerCounters first = ReadCounters(*live->server);
  const int64_t run_start = NowNs();
  UsageSampler sampler(kSamplePeriodMs);
  for (bool traced : plan) {
    const int m = traced ? 1 : 0;
    const ServerCounters before = ReadCounters(*live->server);
    const Usage u0 = ReadUsage();
    const AllocCount a0 = ReadAllocCount();
    int64_t blocks_before = 0;
    for (const Lane& lane : lanes) blocks_before += lane.modes[m].blocks;
    if (traced) SetAllocCounting(true);
    const int64_t start = NowNs();
    RunPhase(q, traced, start + phase_ns, &lanes, &rss_mark);
    phases[m].push_back({start, start + phase_ns});
    SetAllocCounting(false);
    const Usage u1 = ReadUsage();
    const AllocCount a1 = ReadAllocCount();
    const ServerCounters after = ReadCounters(*live->server);
    delta[m].exchanges += after.exchanges - before.exchanges;
    delta[m].bytes_in += after.bytes_in - before.bytes_in;
    delta[m].bytes_out += after.bytes_out - before.bytes_out;
    if (traced) {
      int64_t blocks_after = 0;
      for (const Lane& lane : lanes) blocks_after += lane.modes[m].blocks;
      traced_ops += blocks_after - blocks_before;
      traced_usage.voluntary_switches +=
          u1.voluntary_switches - u0.voluntary_switches;
      traced_usage.involuntary_switches +=
          u1.involuntary_switches - u0.involuntary_switches;
      traced_usage.minor_faults += u1.minor_faults - u0.minor_faults;
      traced_allocs.calls += a1.calls - a0.calls;
      traced_allocs.bytes += a1.bytes - a0.bytes;
    }
  }
  const std::vector<UsageSample> samples = sampler.Finish();
  const ServerCounters last = ReadCounters(*live->server);
  const Usage end_usage = ReadUsage();

  ModeData mode[2];
  LayerData layer;
  for (const Lane& lane : lanes) {
    mode[0].Merge(lane.modes[0]);
    mode[1].Merge(lane.modes[1]);
    layer.Merge(lane.layer);
  }
  for (const ModeData& md : mode) {
    result.attempted += md.attempted_ops;
    result.failed += md.failed_ops;
    for (const std::string& e : md.errors) result.Fail(e);
  }

  // Server-side checks: every exchange the clients made was served once,
  // nothing was replayed, nothing retried.
  for (int m = 0; m < 2; ++m) {
    const int64_t client_calls = mode[m].blocks + 2 * mode[m].queries;
    if (mode[m].failed_ops == 0 && delta[m].exchanges != client_calls) {
      result.Fail("server served " + std::to_string(delta[m].exchanges) +
                  " exchanges, clients made " + std::to_string(client_calls));
    }
  }
  const int64_t replay_hits = last.replay_hits - first.replay_hits;
  const int64_t retries = mode[0].retries + mode[1].retries;
  if (replay_hits != 0) {
    result.Fail(std::to_string(replay_hits) + " replay hits");
  }
  if (first.bytes_in < 0 || first.bytes_out < 0) {
    result.Fail("server stats carry no bytes_in/bytes_out totals");
  }

  const CalmFigures calm_u = TakeCalm(samples, phases[0], mode[0].intervals,
                                      mode[0].block_ms, mode[0].query_ms);
  if (!options.trace) {
    AddEndToEnd(calm_u, setup_s, &result);
    const double rss_at_mark = rss_mark.peak_rss_mb.load();
    if (rss_at_mark == 0.0) {
      std::fprintf(stderr, "fewer than %lld queries: peak_rss_mb read at "
                   "the end of the run\n",
                   static_cast<long long>(shape.rss_mark_queries));
    }
    result.Add("peak_rss_mb", "MB",
               rss_at_mark > 0.0 ? rss_at_mark : end_usage.peak_rss_mb,
               shape.rss_mark_queries);
    return result;
  }

  // Traced run: exact counts must match the untraced phases.
  const ModeData& u = mode[0];
  const ModeData& t = mode[1];
  if (u.queries == 0 || t.queries == 0) {
    result.Fail("a phase completed no query");
    return result;
  }
  if (u.blocks * t.queries != t.blocks * u.queries ||
      u.tuples * t.queries != t.tuples * u.queries ||
      delta[0].exchanges * t.queries != delta[1].exchanges * u.queries) {
    result.Fail("blocks, tuples or exchanges per query differ between the "
                "traced and untraced phases");
  }
  if (layer.request_bytes != delta[1].bytes_in ||
      layer.response_bytes != delta[1].bytes_out) {
    result.Fail("bytes seen by the client (" +
                std::to_string(layer.request_bytes) + " out, " +
                std::to_string(layer.response_bytes) +
                " in) differ from the server's (" +
                std::to_string(delta[1].bytes_in) + ", " +
                std::to_string(delta[1].bytes_out) + ")");
  }
  // Session ids are written into every exchange, so bytes per query may
  // differ between phases by the width of those ids: at most one byte
  // per exchange and direction.
  const double exchanges_per_query =
      static_cast<double>(delta[1].exchanges) / static_cast<double>(t.queries);
  for (const auto& [name, untraced, traced_bytes] :
       {std::tuple{"request", delta[0].bytes_in, delta[1].bytes_in},
        std::tuple{"response", delta[0].bytes_out, delta[1].bytes_out}}) {
    const double per_u =
        static_cast<double>(untraced) / static_cast<double>(u.queries);
    const double per_t =
        static_cast<double>(traced_bytes) / static_cast<double>(t.queries);
    if (std::abs(per_u - per_t) > exchanges_per_query) {
      result.Fail(std::string(name) + " bytes per query differ between "
                  "phases: " + std::to_string(per_u) + " vs " +
                  std::to_string(per_t));
    }
  }

  AddTraceFigures(calm_u, TakeCalm(samples, phases[1], t.intervals, {}, {}),
                  &result);
  const double ops = static_cast<double>(traced_ops);
  const int64_t n_ops = traced_ops;
  result.Add("net.transit_us_p50", "us", Median(layer.transit_us),
             static_cast<int64_t>(layer.transit_us.size()));
  result.Add("net.ctx_switches_per_op", "count/op",
             static_cast<double>(traced_usage.voluntary_switches +
                                 traced_usage.involuntary_switches) /
                 ops,
             n_ops);
  result.Add("net.response_bytes_per_tuple", "B/tuple",
             static_cast<double>(layer.block_response_bytes) /
                 static_cast<double>(t.tuples),
             t.tuples);
  result.Add("net.request_bytes_per_op", "B/op",
             static_cast<double>(layer.block_request_bytes) / ops, n_ops);
  result.Add("server.residence_us_p50", "us", Median(layer.residence_us),
             static_cast<int64_t>(layer.residence_us.size()));
  result.Add("server.exchanges_per_query", "count/query", exchanges_per_query,
             t.queries);
  result.Add("client.session_us", "us", Median(layer.session_us),
             static_cast<int64_t>(layer.session_us.size()));
  result.Add("client.loop_us_per_op", "us/op", Median(layer.loop_us_per_op),
             static_cast<int64_t>(layer.loop_us_per_op.size()));
  result.Add("codec.allocs_per_op", "count/op",
             static_cast<double>(traced_allocs.calls) / ops, n_ops);
  result.Add("codec.alloc_bytes_per_op", "B/op",
             static_cast<double>(traced_allocs.bytes) / ops, n_ops);
  result.Add("relation.generate_s", "s", Median(generate_s),
             static_cast<int64_t>(generate_s.size()));
  result.Add("control.decide_us", "us",
             layer.decisions.decisions > 0
                 ? static_cast<double>(layer.decisions.ns) / 1e3 /
                       static_cast<double>(layer.decisions.decisions)
                 : 0.0,
             layer.decisions.decisions);
  result.Add("control.decisions_per_op", "count/op",
             static_cast<double>(layer.decisions.decisions) / ops, n_ops);
  result.Add("proc.minor_faults_per_op", "count/op",
             static_cast<double>(traced_usage.minor_faults) / ops, n_ops);
  result.Add("client.retries", "count", static_cast<double>(retries),
             u.queries + t.queries);
  result.Add("server.replay_hits", "count", static_cast<double>(replay_hits),
             u.queries + t.queries);

  if (!options.spans_path.empty()) {
    std::vector<const SpanLog*> logs;
    for (const Lane& lane : lanes) logs.push_back(&lane.spans);
    WriteChromeTrace(options.spans_path, logs, run_start, kMaxSpansWritten);
  }
  return result;
}

}  // namespace perfbench
