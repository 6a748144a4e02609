#ifndef WSQ_TESTS_SUPPORT_GOLDEN_H_
#define WSQ_TESTS_SUPPORT_GOLDEN_H_

#include <string>

#include "wsq/backend/run_trace.h"
#include "wsq/obs/trace.h"

namespace wsq {

/// printf-style append to `out`, for golden fingerprints. Each call
/// formats at most 511 bytes.
void Append(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// Every field of `trace` a golden pin compares — totals, the fault log
/// and each step — one line each, floats as hex ("%a") so two
/// fingerprints match iff every float matches to the last bit.
std::string Fingerprint(const RunTrace& trace);

/// Every event `tracer` recorded, one line each: phase, thread,
/// timestamp, duration, name and the raw args JSON.
std::string Fingerprint(const Tracer& tracer);

}  // namespace wsq

#endif  // WSQ_TESTS_SUPPORT_GOLDEN_H_
