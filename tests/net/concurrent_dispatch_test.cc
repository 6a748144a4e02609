// wsqd dispatching blocks of many sessions on several workers at once:
// per-session serialization over live loopback TCP, with duplicated
// requests, closes and TTL evictions racing in-flight blocks and the
// stats plane polled meanwhile. Built for the thread sanitizer as well
// as the plain suite.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live_test_util.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/codec/soap_codec.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

constexpr int kSessions = 8;
constexpr int kClientThreads = 4;
constexpr int64_t kBlockSize = 100;
constexpr double kSessionTtlMs = 500.0;

net::WsqServerOptions ConcurrentOptions() {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.worker_threads = 4;
  options.session_ttl_ms = kSessionTtlMs;
  return options;
}

int64_t OpenSession(TcpWsClient& client) {
  OpenSessionRequest request;
  request.table = "customer";
  Result<CallResult> call = client.Call(EncodeOpenSession(request));
  EXPECT_TRUE(call.ok()) << call.status().ToString();
  if (!call.ok()) return -1;
  Result<XmlNode> payload = ParseEnvelope(call.value().response);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  if (!payload.ok()) return -1;
  return DecodeOpenSessionResponse(payload.value()).value().session_id;
}

Status CloseSession(TcpWsClient& client, int64_t session) {
  CloseSessionRequest request;
  request.session_id = session;
  Result<CallResult> call = client.Call(EncodeCloseSession(request));
  return call.ok() ? Status::Ok() : call.status();
}

std::string BlockRequest(int64_t session, int64_t sequence) {
  RequestBlockRequest request;
  request.session_id = session;
  request.block_size = kBlockSize;
  request.sequence = sequence;
  return EncodeRequestBlock(request);
}

/// Decodes one SOAP block response, appending its rows to `rows`;
/// returns end-of-results.
Result<bool> AppendBlock(const std::string& response,
                         std::vector<Tuple>* rows) {
  static const codec::SoapCodec soap;
  Result<codec::DecodedBlock> block = soap.DecodeBlockResponse(response);
  if (!block.ok()) return block.status();
  const TupleSerializer serializer(CustomerSchema());
  Result<std::vector<Tuple>> tuples =
      block.value().rows.Materialize(&serializer);
  if (!tuples.ok()) return tuples.status();
  rows->insert(rows->end(), tuples.value().begin(), tuples.value().end());
  return block.value().end_of_results;
}

/// True when `rows` is a prefix of `expected`.
bool IsPrefixOf(const std::vector<Tuple>& rows,
                const std::vector<Tuple>& expected) {
  if (rows.size() > expected.size()) return false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!(rows[i] == expected[i])) return false;
  }
  return true;
}

TEST(ConcurrentDispatchTest, EverySessionGetsEveryRowOnceInOrder) {
  LiveServerHarness harness(ConcurrentOptions());
  ASSERT_TRUE(harness.start_status().ok())
      << harness.start_status().ToString();
  const int port = harness.port();
  const std::vector<Tuple> expected = harness.WireRows();

  // Sessions nobody touches again: housekeeping must evict them while
  // the blocks below are in flight.
  {
    TcpWsClient abandon("127.0.0.1", port);
    ASSERT_GT(OpenSession(abandon), 0);
    ASSERT_GT(OpenSession(abandon), 0);
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> polls{0};
  std::thread poller([&] {
    while (!done.load()) {
      const std::string stats = harness.server().StatsJson();
      EXPECT_NE(stats.find("\"active_sessions\":"), std::string::npos);
      polls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // A session closed over a second connection while the first pulls
  // from it: the puller sees an in-order prefix, then a fault.
  std::vector<Tuple> closed_rows;
  Status close_status = Status::Internal("not run");
  std::thread close_race([&] {
    TcpWsClient puller("127.0.0.1", port);
    TcpWsClient closer_client("127.0.0.1", port);
    const int64_t victim = OpenSession(puller);
    std::atomic<int> blocks_seen{0};
    std::thread closer([&] {
      while (blocks_seen.load() < 2) std::this_thread::yield();
      close_status = CloseSession(closer_client, victim);
    });
    for (int64_t seq = 0;; ++seq) {
      Result<CallResult> call = puller.Call(BlockRequest(victim, seq));
      if (!call.ok()) {
        EXPECT_EQ(call.status().code(), StatusCode::kRemoteFault)
            << call.status().ToString();
        break;
      }
      Result<bool> eor = AppendBlock(call.value().response, &closed_rows);
      if (!eor.ok()) {
        ADD_FAILURE() << eor.status().ToString();
        break;
      }
      blocks_seen.fetch_add(1);
      if (eor.value()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    blocks_seen.fetch_add(2);  // releases the closer if the pull ended early
    closer.join();
  });

  std::vector<std::vector<Tuple>> got(kSessions);
  std::vector<std::thread> workers;
  for (int t = 0; t < kClientThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread interleaves two sessions, request by request; each
      // session has a second connection for its duplicated request.
      const int mine[] = {t, t + kClientThreads};
      std::unique_ptr<TcpWsClient> primary[2];
      std::unique_ptr<TcpWsClient> secondary[2];
      for (int k = 0; k < 2; ++k) {
        primary[k] = std::make_unique<TcpWsClient>("127.0.0.1", port);
        secondary[k] = std::make_unique<TcpWsClient>("127.0.0.1", port);
      }
      const int64_t ids[] = {OpenSession(*primary[0]),
                             OpenSession(*primary[1])};
      int64_t seq[2] = {0, 0};
      bool finished[2] = {false, false};
      while (!finished[0] || !finished[1]) {
        for (int k = 0; k < 2; ++k) {
          if (finished[k]) continue;
          const std::string request = BlockRequest(ids[k], seq[k]);
          Result<CallResult> first = Status::Internal("not run");
          if (seq[k] == 2 + mine[k] % 4) {
            // The same sequenced request on two connections at once, as
            // a retry racing its original: both get the same bytes, and
            // the cursor advances once.
            Result<CallResult> second = Status::Internal("not run");
            std::thread duplicate(
                [&] { second = secondary[k]->Call(request); });
            first = primary[k]->Call(request);
            duplicate.join();
            ASSERT_TRUE(second.ok()) << second.status().ToString();
            ASSERT_TRUE(first.ok()) << first.status().ToString();
            EXPECT_EQ(first.value().response, second.value().response);
          } else {
            first = primary[k]->Call(request);
          }
          ASSERT_TRUE(first.ok()) << first.status().ToString();
          Result<bool> eor = AppendBlock(first.value().response,
                                         &got[static_cast<size_t>(mine[k])]);
          ASSERT_TRUE(eor.ok()) << eor.status().ToString();
          finished[k] = eor.value();
          ++seq[k];
          // Slow enough that the abandoned sessions outlive the TTL
          // while these pulls are still running.
          std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
      }
      EXPECT_TRUE(CloseSession(*primary[0], ids[0]).ok());
      EXPECT_TRUE(CloseSession(*primary[1], ids[1]).ok());
    });
  }
  for (std::thread& w : workers) w.join();
  close_race.join();
  for (int i = 0; i < 5000 && harness.server().evicted_sessions() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  poller.join();

  for (int s = 0; s < kSessions; ++s) {
    const std::vector<Tuple>& rows = got[static_cast<size_t>(s)];
    ASSERT_EQ(rows.size(), expected.size()) << "session " << s;
    EXPECT_TRUE(rows == expected) << "session " << s;
  }
  EXPECT_EQ(harness.server().replay_hits(), kSessions);
  EXPECT_TRUE(close_status.ok()) << close_status.ToString();
  EXPECT_TRUE(IsPrefixOf(closed_rows, expected));
  EXPECT_GE(closed_rows.size(), static_cast<size_t>(2 * kBlockSize));
  EXPECT_EQ(harness.server().evicted_sessions(), 2);
  EXPECT_GT(polls.load(), 0);
}

}  // namespace
}  // namespace wsq
