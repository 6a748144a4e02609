#include "support/golden.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "wsq/fault/fault_plan.h"

namespace wsq {

void Append(std::string* out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  *out += buf;
}

std::string Fingerprint(const RunTrace& trace) {
  std::string out;
  Append(&out, "%s|%s|%a|%" PRId64 "|%" PRId64 "|%" PRId64 "|%a|%" PRId64 "\n",
         trace.backend_name.c_str(), trace.controller_name.c_str(),
         trace.total_time_ms, trace.total_blocks, trace.total_tuples,
         trace.total_retries, trace.total_retry_time_ms, trace.breaker_trips);
  for (const InjectedFault& fault : trace.fault_log) {
    Append(&out, " fault %" PRId64 "|%s\n", fault.block_index,
           std::string(FaultKindName(fault.kind)).c_str());
  }
  for (const RunStep& step : trace.steps) {
    Append(&out,
           "  %" PRId64 "|%" PRId64 "|%" PRId64 "|%a|%a|%" PRId64 "|%" PRId64
           "\n",
           step.step, step.requested_size, step.received_tuples,
           step.per_tuple_ms, step.block_time_ms, step.retries,
           step.adaptivity_step);
  }
  return out;
}

std::string Fingerprint(const Tracer& tracer) {
  std::string out;
  for (const TraceEvent& event : tracer.events()) {
    Append(&out, "%c|%d|%" PRId64 "|%" PRId64 "|%s|", event.phase, event.tid,
           event.ts_micros, event.dur_micros, event.name.c_str());
    out += event.args_json;
    out += "\n";
  }
  return out;
}

}  // namespace wsq
