// Quickstart: run one adaptive query end to end.
//
// Builds the whole simulated stack — TPC-H Customer data inside an
// in-memory DBMS, wrapped by a SOAP data service in a loaded container,
// reached over a simulated WAN — then pulls the full result with the
// paper's hybrid extremum controller choosing every block size, and
// compares against a naive fixed block size. Both runs go through the
// unified QueryBackend interface (EmpiricalBackend here; swap in
// ProfileBackend or EventSimBackend to drive the same controller on the
// other execution stacks).
//
//   ./build/examples/quickstart [controller] [--live=host:port]
//                               [--codec=soap|binary|binary+lz]
//
// where [controller] is any of: constant, adaptive, hybrid, hybrid_s,
// mimd, model_quadratic, model_parabolic, self_tuning, fixed:<N>
// (default: hybrid).
//
// With --live=host:port the same demo runs over a *real* TCP connection
// against a wsqd server (see README "Running a live server"), timed on
// the wall clock. Add --codec=binary to negotiate the binary block
// codec with the server (falls back to SOAP if the daemon was not
// started with --codec=binary):
//
//   ./build/src/wsqd --port=9090 --codec=binary &
//   ./build/examples/quickstart hybrid --live=127.0.0.1:9090 --codec=binary

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "wsq/api.h"

namespace {

// Parses "host:port"; returns false on a malformed spec.
bool ParseHostPort(const std::string& spec, std::string* host, int* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  *host = spec.substr(0, colon);
  char* end = nullptr;
  const long p = std::strtol(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p <= 0 || p > 65535) return false;
  *port = static_cast<int>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsq;

  std::string controller_name = "hybrid";
  std::string live_spec;
  codec::CodecChoice codec_choice;  // defaults to SOAP
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--live=", 0) == 0) {
      live_spec = arg.substr(7);
    } else if (arg.rfind("--codec=", 0) == 0) {
      Result<codec::CodecChoice> parsed =
          codec::CodecChoice::FromName(arg.substr(8));
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --codec spec '%s' (want soap, binary, "
                     "or binary+lz)\n", arg.substr(8).c_str());
        return 1;
      }
      codec_choice = parsed.value();
    } else {
      controller_name = arg;
    }
  }

  // 1. The query every mode runs: three columns of TPC-H Customer,
  //    filtered server-side (the expression travels inside the
  //    OpenSession envelope).
  ScanProjectQuery query;
  query.table_name = "customer";
  query.projected_columns = {"c_custkey", "c_name", "c_acctbal"};
  query.filter = "c_acctbal >= -500";

  // 2. Backend: simulated end-to-end stack by default; with --live a
  //    socket-backed LiveBackend against a running wsqd server.
  std::unique_ptr<EmpiricalBackend> empirical;
  std::unique_ptr<LiveBackend> live;
  if (live_spec.empty()) {
    // A scaled-down TPC-H Customer relation (15K rows) inside an
    // in-memory DBMS; server in the UK, client in Greece, a couple of
    // concurrent jobs on the container.
    TpchGenOptions gen;
    gen.scale = 0.1;
    Result<std::shared_ptr<Table>> customer = GenerateCustomer(gen);
    if (!customer.ok()) {
      std::fprintf(stderr, "generator: %s\n",
                   customer.status().ToString().c_str());
      return 1;
    }
    EmpiricalSetup setup;
    setup.table = customer.value();
    setup.query = query;
    setup.link = WanUkToGreece();
    setup.load.concurrent_jobs = 2;
    setup.seed = 7;
    setup.codec = codec_choice;
    // Each RunQuery stands up a fresh client/server stack from the
    // setup, so the adaptive run and the baseline see identical
    // environments.
    empirical = std::make_unique<EmpiricalBackend>(setup);
  } else {
    LiveSetup setup;
    if (!ParseHostPort(live_spec, &setup.host, &setup.port)) {
      std::fprintf(stderr, "bad --live spec '%s' (want host:port)\n",
                   live_spec.c_str());
      return 1;
    }
    setup.query = query;
    // The server does not ship schemas — the client states what it
    // asked for: the customer schema projected onto the query columns.
    const Schema customer_schema = CustomerSchema();
    std::vector<size_t> indices;
    for (const std::string& column : query.projected_columns) {
      indices.push_back(customer_schema.ColumnIndex(column).value());
    }
    setup.output_schema =
        std::make_shared<Schema>(customer_schema.Project(indices).value());
    setup.seed = 7;
    setup.client_options.codec = codec_choice;
    live = std::make_unique<LiveBackend>(std::move(setup));
  }

  const auto run_keeping = [&](Controller* controller,
                               std::vector<Tuple>* rows) {
    return live ? live->RunQueryKeepingTuples(controller, RunSpec{}, rows)
                : empirical->RunQueryKeepingTuples(controller, RunSpec{},
                                                   rows);
  };

  // 3. Controller: anything the factory knows.
  Result<std::unique_ptr<Controller>> controller =
      ControllerFactory::FromName(controller_name);
  if (!controller.ok()) {
    std::fprintf(stderr, "controller: %s\n",
                 controller.status().ToString().c_str());
    return 1;
  }

  // 4. Run the query; the fetch loop is the paper's Algorithm 1.
  std::vector<Tuple> rows;
  Result<RunTrace> outcome = run_keeping(controller.value().get(), &rows);
  if (!outcome.ok()) {
    std::fprintf(stderr, "query: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("backend       : %s\n",
              live ? live->name().c_str() : empirical->name().c_str());
  std::printf("controller    : %s\n", controller.value()->name().c_str());
  std::printf("rows received : %lld (first: %s)\n",
              static_cast<long long>(outcome.value().total_tuples),
              rows.front().ToString().c_str());
  std::printf("blocks pulled : %lld\n",
              static_cast<long long>(outcome.value().total_blocks));
  std::printf("response time : %.0f ms\n", outcome.value().total_time_ms);

  // 5. Baseline: the same query with a conservative fixed block size.
  FixedController fixed(1000);
  std::vector<Tuple> baseline_rows;
  Result<RunTrace> baseline = run_keeping(&fixed, &baseline_rows);
  if (!baseline.ok()) return 1;
  std::printf("fixed-1000    : %.0f ms  (adaptive saves %.1f%%)\n",
              baseline.value().total_time_ms,
              100.0 * (1.0 - outcome.value().total_time_ms /
                                 baseline.value().total_time_ms));

  // The decision trail, block by block.
  std::printf("\nblock sizes chosen:");
  for (const RunStep& step : outcome.value().steps) {
    std::printf(" %lld", static_cast<long long>(step.requested_size));
  }
  std::printf("\n");
  return 0;
}
