#include "wsq/soap/envelope.h"

#include <algorithm>
#include <vector>

namespace wsq {
namespace {

constexpr std::string_view kXmlDeclaration =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Text bytes in the subtree: nearly all of a large document, so a
/// buffer reserved from it plus some markup slack rarely has to grow.
size_t TextBytes(const XmlNode& node) {
  size_t bytes = node.text().size();
  for (const XmlNode& child : node.children()) bytes += TextBytes(child);
  return bytes;
}

constexpr size_t kMarkupSlack = 512;

}  // namespace

void AppendEnvelopeHead(std::string& out) {
  out.append(kXmlDeclaration);
  out += '<';
  out.append(kSoapPrefix);
  out.append(":Envelope xmlns:");
  out.append(kSoapPrefix);
  out.append("=\"");
  out.append(kSoapNamespace);
  out.append("\"><");
  out.append(kSoapPrefix);
  out.append(":Body>");
}

void AppendEnvelopeTail(std::string& out) {
  out.append("</");
  out.append(kSoapPrefix);
  out.append(":Body></");
  out.append(kSoapPrefix);
  out.append(":Envelope>");
}

std::string BuildEnvelope(XmlNode body_payload) {
  std::string out;
  out.reserve(TextBytes(body_payload) + kMarkupSlack);
  AppendEnvelopeHead(out);
  body_payload.AppendTo(out);
  AppendEnvelopeTail(out);
  return out;
}

std::string BuildFaultEnvelope(const SoapFault& fault) {
  XmlNode fault_node(std::string(kSoapPrefix) + ":Fault");
  XmlNode code("faultcode");
  code.set_text(std::string(kSoapPrefix) + ":" + fault.code);
  XmlNode message("faultstring");
  message.set_text(fault.message);
  fault_node.AddChild(std::move(code));
  fault_node.AddChild(std::move(message));
  return BuildEnvelope(std::move(fault_node));
}

Result<XmlNode> ParseEnvelope(std::string_view document) {
  Result<XmlNode> root = ParseXml(document);
  if (!root.ok()) return root.status();
  if (LocalName(root.value().name()) != "Envelope") {
    return Status::InvalidArgument("document root is not a SOAP Envelope");
  }
  std::vector<XmlNode>& parts = root.value().mutable_children();
  auto body = std::find_if(parts.begin(), parts.end(), [](const XmlNode& n) {
    return LocalName(n.name()) == "Body";
  });
  if (body == parts.end()) {
    return Status::InvalidArgument("SOAP Envelope has no Body");
  }
  if (body->children().empty()) {
    return Status::InvalidArgument("SOAP Body is empty");
  }
  XmlNode& payload = body->mutable_children().front();
  if (LocalName(payload.name()) == "Fault") {
    Result<std::string> message = payload.ChildText("faultstring");
    return Status::RemoteFault(message.ok() ? message.value()
                                            : "unspecified SOAP fault");
  }
  return std::move(payload);
}

}  // namespace wsq
