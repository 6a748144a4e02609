#ifndef WSQ_TESTS_NET_LIVE_TEST_UTIL_H_
#define WSQ_TESTS_NET_LIVE_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wsq/backend/live_backend.h"
#include "wsq/net/frame.h"
#include "wsq/net/server.h"
#include "wsq/net/socket.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/server/container.h"
#include "wsq/server/data_service.h"
#include "wsq/server/dbms.h"

namespace wsq {

/// Stands up the full server stack (tables + DBMS + DataService +
/// ServiceContainer + WsqServer) on an ephemeral loopback port — what
/// every live test talks to. The service-time sleep is off by default;
/// tests that need realistic timing dynamics turn it on via `options`.
class LiveServerHarness {
 public:
  explicit LiveServerHarness(net::WsqServerOptions options = QuickOptions(),
                             double scale = 0.01, uint64_t seed = 7) {
    TpchGenOptions gen;
    gen.scale = scale;
    gen.seed = seed;
    customer_ = GenerateCustomer(gen).value();
    register_status_ = dbms_.RegisterTable(customer_);
    service_ = std::make_unique<DataService>(&dbms_);
    LoadModelConfig load;
    load.noise_sigma = 0.0;  // deterministic service times
    container_ = std::make_unique<ServiceContainer>(service_.get(), load,
                                                    seed);
    options.port = 0;  // always ephemeral in tests
    server_ = std::make_unique<net::WsqServer>(container_.get(),
                                               std::move(options));
    start_status_ = server_->Start();
  }

  static net::WsqServerOptions QuickOptions() {
    net::WsqServerOptions options;
    options.simulate_service_time = false;
    return options;
  }

  const Status& start_status() const { return start_status_; }
  const Status& register_status() const { return register_status_; }
  net::WsqServer& server() { return *server_; }
  int port() const { return server_->port(); }
  const Table& customer() const { return *customer_; }

  /// The customer rows exactly as the wire format delivers them: the
  /// delimited text format rounds doubles to 2 decimals on purpose, so
  /// fetched tuples compare equal to a serializer round-trip of the
  /// table, not to the raw in-memory rows.
  std::vector<Tuple> WireRows() const {
    TupleSerializer serializer(CustomerSchema());
    std::vector<Tuple> out;
    out.reserve(customer_->num_rows());
    for (const Tuple& row : customer_->rows()) {
      out.push_back(
          serializer.Deserialize(serializer.Serialize(row).value()).value());
    }
    return out;
  }

  /// A LiveSetup pointed at this server, querying the full customer
  /// table, with the output schema wired so tests can keep tuples.
  LiveSetup MakeSetup() const {
    LiveSetup setup;
    setup.host = "127.0.0.1";
    setup.port = server_->port();
    setup.query.table_name = "customer";
    setup.output_schema = std::make_shared<Schema>(CustomerSchema());
    // Tests run against a loopback server they control; a short connect
    // timeout keeps negative tests fast.
    setup.client_options.connect_timeout_ms = 2000.0;
    return setup;
  }

 private:
  std::shared_ptr<Table> customer_;
  Dbms dbms_;
  std::unique_ptr<DataService> service_;
  std::unique_ptr<ServiceContainer> container_;
  std::unique_ptr<net::WsqServer> server_;
  Status register_status_;
  Status start_status_;
};

/// Opens a raw connection's protocol: sends a Hello advertising
/// `advertised` (and asking for CRC when `crc` is set) and reads the
/// HelloAck. The server refuses a kRequest on a connection that skipped
/// this.
inline Status RawHello(net::Socket& conn,
                       const std::string& advertised = "soap",
                       bool crc = false) {
  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.payload = advertised;
  hello.has_crc = crc;
  WSQ_RETURN_IF_ERROR(net::WriteFrame(conn, hello));
  Result<net::Frame> ack = net::ReadFrame(conn);
  if (!ack.ok()) return ack.status();
  if (ack.value().type != net::FrameType::kHelloAck) {
    return Status::Internal("expected a HelloAck");
  }
  return Status::Ok();
}

}  // namespace wsq

#endif  // WSQ_TESTS_NET_LIVE_TEST_UTIL_H_
