#ifndef WSQ_TESTS_SUPPORT_JSON_CHECK_H_
#define WSQ_TESTS_SUPPORT_JSON_CHECK_H_

#include <string_view>

#include "wsq/common/status.h"

namespace wsq {

/// Validates that `text` is one well-formed JSON value (RFC 8259 syntax;
/// no extensions). This is a syntax checker, not a DOM: it exists so
/// tests and tools can assert that exported metrics/trace documents
/// parse, without a JSON library dependency.
Status CheckJson(std::string_view text);

/// Validates that `text` is a Chrome trace-event JSON object as loaded
/// by Perfetto / chrome://tracing: a top-level object whose
/// "traceEvents" member is an array of event objects, each carrying the
/// required "name"/"ph"/"ts"/"pid"/"tid" members, with "dur" required
/// for complete ("X") events. Returns kInvalidArgument naming the first
/// violation.
Status CheckChromeTrace(std::string_view text);

}  // namespace wsq

#endif  // WSQ_TESTS_SUPPORT_JSON_CHECK_H_
