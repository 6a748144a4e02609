// DataService called from many threads at once, with no lock around it:
// the per-session locking contract of data_service.h. Built for the
// thread sanitizer as well as the plain suite.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/common/clock.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/server/data_service.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

constexpr int kSessions = 8;
constexpr int kThreads = 4;
constexpr int64_t kRows = 600;
constexpr int64_t kBlockSize = 16;
/// Idle time after which the evictor drops a session. Active sessions
/// are touched every few milliseconds, far inside it.
constexpr int64_t kIdleMicros = 250 * 1000;

Schema NumsSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"label", ColumnType::kString}});
}

/// The label column of row `id`. (Appended rather than "r" + ..., which
/// trips a GCC 12 -Wrestrict false positive.)
std::string Label(int64_t id) {
  std::string label = "r";
  label += std::to_string(id);
  return label;
}

/// A decoded block response: the ids it carries, or the fault.
struct Block {
  bool fault = false;
  bool end_of_results = false;
  std::vector<int64_t> ids;
};

Block Decode(const ServiceResult& result) {
  Block block;
  block.fault = result.is_fault;
  if (block.fault) return block;
  Result<XmlNode> payload = ParseEnvelope(result.response);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  if (!payload.ok()) return block;
  Result<BlockResponse> response = DecodeBlockResponse(payload.value());
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return block;
  block.end_of_results = response.value().end_of_results;
  const TupleSerializer serializer(NumsSchema());
  Result<std::vector<Tuple>> rows =
      serializer.DeserializeBlock(response.value().payload);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return block;
  for (const Tuple& row : rows.value()) {
    block.ids.push_back(std::get<int64_t>(row.value(0)));
    EXPECT_EQ(std::get<std::string>(row.value(1)), Label(block.ids.back()));
  }
  return block;
}

/// True when `ids` is exactly 0, 1, ..., n-1.
bool IsPrefixInOrder(const std::vector<int64_t>& ids) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != static_cast<int64_t>(i)) return false;
  }
  return true;
}

class DataServiceConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = std::make_shared<Table>("nums", NumsSchema());
    for (int64_t i = 0; i < kRows; ++i) {
      table->AppendUnchecked(
          Tuple({Value(i), Value(Label(i))}));
    }
    ASSERT_TRUE(dbms_.RegisterTable(table).ok());
    service_ = std::make_unique<DataService>(&dbms_);
  }

  int64_t Open() {
    OpenSessionRequest request;
    request.table = "nums";
    ServiceResult result = service_->Handle(EncodeOpenSession(request));
    EXPECT_FALSE(result.is_fault) << result.response;
    Result<XmlNode> payload = ParseEnvelope(result.response);
    EXPECT_TRUE(payload.ok());
    if (!payload.ok()) return -1;
    return DecodeOpenSessionResponse(payload.value()).value().session_id;
  }

  static std::string BlockRequest(int64_t session, int64_t sequence) {
    RequestBlockRequest request;
    request.session_id = session;
    request.block_size = kBlockSize;
    request.sequence = sequence;
    return EncodeRequestBlock(request);
  }

  bool Close(int64_t session) {
    CloseSessionRequest request;
    request.session_id = session;
    return !service_->Handle(EncodeCloseSession(request)).is_fault;
  }

  Dbms dbms_;
  std::unique_ptr<DataService> service_;
};

TEST_F(DataServiceConcurrencyTest, EverySessionGetsEveryRowOnceInOrder) {
  // Sessions nobody touches again; the evictor must drop them while
  // the blocks below are in flight.
  const int64_t abandoned[] = {Open(), Open()};
  std::this_thread::sleep_for(std::chrono::microseconds(kIdleMicros + 50000));

  std::atomic<bool> done{false};
  std::atomic<int64_t> evicted{0};
  std::thread evictor([&] {
    while (!done.load()) {
      evicted.fetch_add(
          service_->EvictIdleSessions(WallClock().NowMicros(), kIdleMicros));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int64_t> polls{0};
  std::thread poller([&] {
    while (!done.load()) {
      // Eight pulled sessions, two abandoned ones and the close victim.
      const int64_t active = service_->ActiveSessions();
      EXPECT_GE(active, 0);
      EXPECT_LE(active, kSessions + 3);
      polls.fetch_add(1);
      std::this_thread::yield();
    }
  });

  // A session closed from one thread while another pulls from it: the
  // puller sees an in-order prefix, then "unknown session".
  std::vector<int64_t> closed_ids;
  bool closed_ok = false;
  std::thread close_race([&] {
    const int64_t victim = Open();
    std::atomic<int> blocks_seen{0};
    std::thread closer([&] {
      while (blocks_seen.load() < 2) std::this_thread::yield();
      closed_ok = Close(victim);
    });
    for (int64_t seq = 0;; ++seq) {
      const Block block = Decode(service_->Handle(BlockRequest(victim, seq)));
      if (block.fault) break;
      closed_ids.insert(closed_ids.end(), block.ids.begin(), block.ids.end());
      blocks_seen.fetch_add(1);
      if (block.end_of_results) break;
    }
    blocks_seen.fetch_add(2);  // releases the closer if the pull ended early
    closer.join();
  });

  std::vector<std::vector<int64_t>> got(kSessions);
  std::atomic<int> duplicated{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread interleaves two sessions, request by request.
      const int mine[] = {t, t + kThreads};
      int64_t ids[2] = {Open(), Open()};
      int64_t seq[2] = {0, 0};
      bool finished[2] = {false, false};
      while (!finished[0] || !finished[1]) {
        for (int k = 0; k < 2; ++k) {
          if (finished[k]) continue;
          const std::string request = BlockRequest(ids[k], seq[k]);
          ServiceResult first;
          if (seq[k] % 4 == mine[k] % 4) {
            // The same sequenced request twice at once, as a retry that
            // races its original: one serves, the other replays, and
            // both carry the same bytes.
            ServiceResult second;
            std::atomic<bool> ready{false};
            std::atomic<bool> go{false};
            std::thread duplicate([&] {
              ready.store(true);
              while (!go.load()) std::this_thread::yield();
              second = service_->Handle(request);
            });
            while (!ready.load()) std::this_thread::yield();
            go.store(true);
            first = service_->Handle(request);
            duplicate.join();
            EXPECT_EQ(first.response, second.response);
            EXPECT_EQ(static_cast<int>(first.replayed) +
                          static_cast<int>(second.replayed),
                      1);
            duplicated.fetch_add(1);
          } else {
            first = service_->Handle(request);
          }
          const Block block = Decode(first);
          ASSERT_FALSE(block.fault) << first.response;
          std::vector<int64_t>& out = got[static_cast<size_t>(mine[k])];
          out.insert(out.end(), block.ids.begin(), block.ids.end());
          finished[k] = block.end_of_results;
          ++seq[k];
        }
      }
      EXPECT_TRUE(Close(ids[0]));
      EXPECT_TRUE(Close(ids[1]));
    });
  }
  for (std::thread& w : workers) w.join();
  close_race.join();
  // Let the evictor catch up if the workers outran it.
  for (int i = 0; i < 5000 && evicted.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  evictor.join();
  poller.join();

  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[static_cast<size_t>(s)].size(), static_cast<size_t>(kRows))
        << "session " << s;
    EXPECT_TRUE(IsPrefixInOrder(got[static_cast<size_t>(s)]))
        << "session " << s;
  }
  // 38 blocks per session, every fourth one sent twice.
  EXPECT_GE(duplicated.load(), kSessions * 9);
  EXPECT_TRUE(closed_ok);
  EXPECT_TRUE(IsPrefixInOrder(closed_ids));
  EXPECT_GE(closed_ids.size(), static_cast<size_t>(2 * kBlockSize));
  EXPECT_EQ(evicted.load(), 2);
  EXPECT_EQ(service_->open_sessions(), 0u);
  EXPECT_GT(polls.load(), 0);
  for (int64_t id : abandoned) {
    EXPECT_TRUE(Decode(service_->Handle(BlockRequest(id, 0))).fault);
  }
}

TEST_F(DataServiceConcurrencyTest, EvictionRacingAnInFlightSessionIsClean) {
  // A session that idles past the limit between its requests races the
  // evictor on every request: each either finds it (and continues the
  // scan in order) or is told the session is unknown.
  const int64_t session = Open();
  std::atomic<bool> done{false};
  std::thread evictor([&] {
    while (!done.load()) {
      service_->EvictIdleSessions(WallClock().NowMicros(), kIdleMicros / 10);
      std::this_thread::yield();
    }
  });
  std::vector<int64_t> ids;
  for (int64_t seq = 0; seq < 50; ++seq) {
    const Block block = Decode(service_->Handle(BlockRequest(session, seq)));
    if (block.fault) break;
    ids.insert(ids.end(), block.ids.begin(), block.ids.end());
    if (block.end_of_results) break;
    std::this_thread::sleep_for(std::chrono::microseconds(
        seq % 2 == 0 ? kIdleMicros / 10 : kIdleMicros / 40));
  }
  done.store(true);
  evictor.join();
  EXPECT_TRUE(IsPrefixInOrder(ids));
}

}  // namespace
}  // namespace wsq
