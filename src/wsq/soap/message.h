#ifndef WSQ_SOAP_MESSAGE_H_
#define WSQ_SOAP_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/xml.h"

namespace wsq {

/// The wsq data-service message vocabulary — the OGSA-DAI-style protocol
/// spoken between the client (BlockFetcher) and the server
/// (DataService):
///
///   OpenSession(table, columns)  -> OpenSessionResponse(session_id)
///   RequestBlock(session, size)  -> BlockResponse(tuples, eof)
///   CloseSession(session)        -> CloseSessionResponse
///
/// Every message is one element inside a SOAP Body; errors come back as
/// SOAP Faults.

struct OpenSessionRequest {
  std::string table;
  /// Projection; empty means all columns.
  std::vector<std::string> columns;
  /// Optional filter expression (relation/predicate.h grammar); empty
  /// keeps every row.
  std::string filter;
};

struct OpenSessionResponse {
  int64_t session_id = 0;
  /// Rows in the underlying table — the result size for plain
  /// scan-project queries, an upper bound when a filter is set.
  int64_t total_rows = 0;
};

struct RequestBlockRequest {
  int64_t session_id = 0;
  int64_t block_size = 0;
  /// Client block sequence number, used by the server's replay cache to
  /// make retried fetches idempotent. -1 means "not sequenced": the
  /// SOAP encoding omits the element entirely, so the simulated
  /// transport's requests (and the figures priced on their bytes) stay
  /// byte-identical. Every live request is sequenced.
  int64_t sequence = -1;
};

struct BlockResponse {
  int64_t session_id = 0;
  bool end_of_results = false;
  int64_t num_tuples = 0;
  /// Serialized tuple rows (TupleSerializer format).
  std::string payload;
};

struct CloseSessionRequest {
  int64_t session_id = 0;
};

struct CloseSessionResponse {
  int64_t session_id = 0;
};

/// The *push* direction (paper Section I: "submitting calls to a WS to
/// perform data processing ... needs to be block-based"): the client
/// ships a block of input tuples to a named server-side function and
/// receives the processed tuples back.
struct ProcessBlockRequest {
  /// Registered function to invoke.
  std::string function;
  /// Client-chosen sequence number, echoed back (lets clients correlate
  /// responses and makes retries observable server-side).
  int64_t sequence = 0;
  int64_t num_tuples = 0;
  /// Serialized input tuples (TupleSerializer format, the function's
  /// input schema).
  std::string payload;
};

struct ProcessBlockResponse {
  int64_t sequence = 0;
  int64_t num_tuples = 0;
  /// Serialized output tuples (the function's output schema).
  std::string payload;
};

/// Kind tag for server-side dispatch.
enum class RequestKind {
  kOpenSession,
  kRequestBlock,
  kCloseSession,
  kProcessBlock,
};

/// Encoders: full envelope documents ready for "transmission".
std::string EncodeOpenSession(const OpenSessionRequest& request);
std::string EncodeOpenSessionResponse(const OpenSessionResponse& response);
std::string EncodeRequestBlock(const RequestBlockRequest& request);
std::string EncodeCloseSession(const CloseSessionRequest& request);
std::string EncodeCloseSessionResponse(const CloseSessionResponse& response);
std::string EncodeProcessBlock(const ProcessBlockRequest& request);
std::string EncodeProcessBlockResponse(const ProcessBlockResponse& response);

/// A BlockResponse document written as text around a payload the
/// caller streams in: the head runs through the opening <payload> tag,
/// the caller appends the payload already XML-escaped, and the tail
/// closes the document. With `empty_payload` the tail rewrites the
/// open tag as <payload/>, as the DOM writes an empty element.
/// (codec::SoapCodec is the one block-response encoder.)
void AppendBlockResponseHead(int64_t session_id, bool end_of_results,
                             int64_t num_tuples, std::string& out);
void AppendBlockResponseTail(bool empty_payload, std::string& out);

/// Classifies a parsed request payload element by its local name;
/// kInvalidArgument for unknown operations.
Result<RequestKind> ClassifyRequest(const XmlNode& payload);

/// Decoders from the Body payload element (as returned by
/// ParseEnvelope). Each validates the element name and required fields.
Result<OpenSessionRequest> DecodeOpenSession(const XmlNode& payload);
Result<OpenSessionResponse> DecodeOpenSessionResponse(const XmlNode& payload);
Result<RequestBlockRequest> DecodeRequestBlock(const XmlNode& payload);
/// Takes the element by value: move it in to take over its payload text
/// without a copy.
Result<BlockResponse> DecodeBlockResponse(XmlNode payload);
Result<CloseSessionRequest> DecodeCloseSession(const XmlNode& payload);
Result<CloseSessionResponse> DecodeCloseSessionResponse(
    const XmlNode& payload);
Result<ProcessBlockRequest> DecodeProcessBlock(const XmlNode& payload);
Result<ProcessBlockResponse> DecodeProcessBlockResponse(
    const XmlNode& payload);

}  // namespace wsq

#endif  // WSQ_SOAP_MESSAGE_H_
