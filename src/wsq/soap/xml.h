#ifndef WSQ_SOAP_XML_H_
#define WSQ_SOAP_XML_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wsq/common/status.h"

namespace wsq {

/// A parsed XML element: name, attributes, child elements and
/// concatenated text content. This is the minimal document model the
/// SOAP layer needs — no namespaces resolution (prefixes stay part of
/// names), no comments/CDATA/doctype support, which is all our own
/// envelopes use.
class XmlNode {
 public:
  XmlNode() = default;
  explicit XmlNode(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::string& text() const { return text_; }
  std::string& mutable_text() { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  void AddAttribute(std::string name, std::string value);

  const std::vector<XmlNode>& children() const { return children_; }
  std::vector<XmlNode>& mutable_children() { return children_; }
  /// Appends a child and returns a reference to the stored copy.
  XmlNode& AddChild(XmlNode child);

  /// First child with `name` (exact match including any prefix);
  /// kNotFound when absent.
  Result<const XmlNode*> Child(std::string_view name) const;

  /// Text of the first child named `name`; kNotFound when absent.
  Result<std::string> ChildText(std::string_view name) const;

  /// Appends the serialized element (and subtree) to `out`, escaping &,
  /// <, >, " and ' in text and attribute values.
  void AppendTo(std::string& out) const;

 private:
  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<XmlNode> children_;
};

/// Parses a single-rooted XML document. Leading XML declarations
/// (<?xml ...?>) are skipped. Returns kInvalidArgument on malformed
/// input (mismatched tags, bad entities, trailing garbage).
Result<XmlNode> ParseXml(std::string_view input);

/// Strips a namespace prefix: LocalName("soapenv:Body") == "Body".
std::string_view LocalName(std::string_view qualified);

}  // namespace wsq

#endif  // WSQ_SOAP_XML_H_
