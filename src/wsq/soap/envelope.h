#ifndef WSQ_SOAP_ENVELOPE_H_
#define WSQ_SOAP_ENVELOPE_H_

#include <optional>
#include <string>

#include "wsq/common/status.h"
#include "wsq/soap/xml.h"

namespace wsq {

/// The SOAP 1.1 envelope namespace prefix our messages use.
inline constexpr std::string_view kSoapPrefix = "soapenv";
inline constexpr std::string_view kSoapNamespace =
    "http://schemas.xmlsoap.org/soap/envelope/";

/// A SOAP fault, the error shape web services return instead of a
/// payload (maps onto StatusCode::kRemoteFault at the client).
struct SoapFault {
  /// "Client" (caller error) or "Server" (service error), per SOAP 1.1.
  std::string code;
  std::string message;
};

/// Wraps `body_payload` (one element) in a SOAP envelope document with
/// the standard XML declaration. Pass an rvalue to keep a large text
/// payload from being copied into the envelope tree.
std::string BuildEnvelope(XmlNode body_payload);

/// The envelope's bytes before and after its one Body element, for
/// writers that stream a payload element as text. BuildEnvelope()
/// writes the same bytes around the payload it renders.
void AppendEnvelopeHead(std::string& out);
void AppendEnvelopeTail(std::string& out);

/// Builds a fault envelope.
std::string BuildFaultEnvelope(const SoapFault& fault);

/// Parses an envelope and returns the first element inside Body (moved
/// out of the parsed tree, not copied).
/// When the body holds a Fault, returns kRemoteFault with the fault
/// string as the message. kInvalidArgument for malformed envelopes.
Result<XmlNode> ParseEnvelope(std::string_view document);

}  // namespace wsq

#endif  // WSQ_SOAP_ENVELOPE_H_
