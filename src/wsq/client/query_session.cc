#include "wsq/client/query_session.h"

namespace wsq {

QuerySession::QuerySession(EmpiricalSetup setup) : setup_(std::move(setup)) {}

Result<std::unique_ptr<QuerySession>> QuerySession::Create(
    EmpiricalSetup setup) {
  if (setup.table == nullptr) {
    return Status::InvalidArgument("QuerySession: null table");
  }
  WSQ_RETURN_IF_ERROR(setup.link.Validate());
  WSQ_RETURN_IF_ERROR(setup.load.Validate());
  std::unique_ptr<QuerySession> session(new QuerySession(std::move(setup)));
  WSQ_RETURN_IF_ERROR(session->Init());
  return session;
}

Status QuerySession::Init() {
  WSQ_RETURN_IF_ERROR(dbms_.RegisterTable(setup_.table));

  // Resolve the projected output schema once so Execute can hand
  // deserialization to the fetcher.
  Result<std::unique_ptr<QueryCursor>> probe = dbms_.OpenCursor(setup_.query);
  if (!probe.ok()) return probe.status();
  output_schema_ = std::make_unique<Schema>(probe.value()->output_schema());
  serializer_ = std::make_unique<TupleSerializer>(*output_schema_);

  service_ = std::make_unique<DataService>(&dbms_);
  container_ = std::make_unique<ServiceContainer>(service_.get(), setup_.load,
                                                  setup_.seed);
  client_ = std::make_unique<WsClient>(container_.get(), setup_.link, &clock_,
                                       setup_.seed + 1);
  if (setup_.codec.kind != codec::CodecKind::kSoap) {
    client_->NegotiateCodec(setup_.codec);
  }
  return Status::Ok();
}

Result<FetchOutcome> QuerySession::Execute(Controller* controller,
                                           std::vector<Tuple>* keep_tuples,
                                           RunObserver* observer,
                                           ResiliencePolicy* policy,
                                           FaultInjector* injector) {
  if (controller == nullptr) {
    return Status::InvalidArgument("Execute: null controller");
  }
  BlockFetcher fetcher(client_.get(), controller, policy, injector, observer);
  return fetcher.Run(setup_.query,
                     keep_tuples != nullptr ? serializer_.get() : nullptr,
                     keep_tuples);
}

}  // namespace wsq
