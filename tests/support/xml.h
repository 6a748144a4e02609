#ifndef WSQ_TESTS_SUPPORT_XML_H_
#define WSQ_TESTS_SUPPORT_XML_H_

#include <optional>
#include <string>
#include <string_view>

#include "wsq/soap/xml.h"

namespace wsq {

/// `node` and its subtree serialized by XmlNode::AppendTo.
inline std::string ToXml(const XmlNode& node) {
  std::string out;
  node.AppendTo(out);
  return out;
}

/// Value of `node`'s first attribute named `name`; nullopt when absent.
inline std::optional<std::string> AttributeOf(const XmlNode& node,
                                              std::string_view name) {
  for (const auto& [attr_name, value] : node.attributes()) {
    if (attr_name == name) return value;
  }
  return std::nullopt;
}

}  // namespace wsq

#endif  // WSQ_TESTS_SUPPORT_XML_H_
