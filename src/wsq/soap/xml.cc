#include "wsq/soap/xml.h"

#include <algorithm>
#include <cctype>

#include "wsq/common/byte_scan.h"

namespace wsq {
namespace {

/// `raw` with &, <, >, " and ' escaped, appended to `out`.
void AppendXmlEscaped(std::string_view raw, std::string& out) {
  AppendEscaped(raw, kXmlSpecialBytes, XmlEntity, out);
}

/// Incremental parser over a string_view with position tracking.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<XmlNode> ParseDocument() {
    SkipWhitespaceAndProlog();
    Result<XmlNode> root = ParseElement();
    if (!root.ok()) return root.status();
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing content after document root");
    }
    return root;
  }

 private:
  Status Error(std::string_view message) const {
    return Status::InvalidArgument("XML parse error at offset " +
                                   std::to_string(pos_) + ": " +
                                   std::string(message));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Consume(char c) {
    if (!AtEnd() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  void SkipWhitespaceAndProlog() {
    SkipWhitespace();
    // <?xml ... ?> declarations and processing instructions.
    while (pos_ + 1 < input_.size() && input_[pos_] == '<' &&
           input_[pos_ + 1] == '?') {
      const size_t end = input_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? input_.size() : end + 2;
      SkipWhitespace();
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == ':' ||
           c == '_' || c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Appends `raw` to `out` with its entity references decoded; the
  /// runs between references are copied whole.
  Status AppendDecoded(std::string_view raw, std::string& out) const {
    size_t run = 0;
    for (size_t amp = raw.find('&'); amp != std::string_view::npos;
         amp = raw.find('&', run)) {
      out.append(raw.substr(run, amp - run));
      const size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) return Error("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "amp") {
        out += '&';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else {
        return Error("unknown entity: " + std::string(entity));
      }
      run = semi + 1;
    }
    out.append(raw.substr(run));
    return Status::Ok();
  }

  Result<XmlNode> ParseElement() {
    if (!Consume('<')) return Error("expected '<'");
    Result<std::string> name = ParseName();
    if (!name.ok()) return name.status();
    XmlNode node(name.value());

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '/' || Peek() == '>') break;
      Result<std::string> attr_name = ParseName();
      if (!attr_name.ok()) return attr_name.status();
      SkipWhitespace();
      if (!Consume('=')) return Error("expected '=' in attribute");
      SkipWhitespace();
      const char quote = AtEnd() ? '\0' : Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      ++pos_;
      const size_t value_start = pos_;
      pos_ = std::min(input_.find(quote, pos_), input_.size());
      if (AtEnd()) return Error("unterminated attribute value");
      std::string value;
      WSQ_RETURN_IF_ERROR(AppendDecoded(
          input_.substr(value_start, pos_ - value_start), value));
      ++pos_;  // closing quote
      node.AddAttribute(std::move(attr_name).value(), std::move(value));
    }

    if (Consume('/')) {
      if (!Consume('>')) return Error("expected '>' after '/'");
      return node;  // self-closing element
    }
    if (!Consume('>')) return Error("expected '>'");

    // Content: text and child elements until the matching end tag.
    while (true) {
      if (AtEnd()) return Error("unterminated element: " + node.name());
      if (Peek() == '<') {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '/') {
          pos_ += 2;
          Result<std::string> end_name = ParseName();
          if (!end_name.ok()) return end_name.status();
          if (end_name.value() != node.name()) {
            return Error("mismatched end tag: expected " + node.name() +
                         ", got " + end_name.value());
          }
          SkipWhitespace();
          if (!Consume('>')) return Error("expected '>' in end tag");
          return node;
        }
        Result<XmlNode> child = ParseElement();
        if (!child.ok()) return child.status();
        node.AddChild(std::move(child).value());
      } else {
        const size_t start = pos_;
        pos_ = std::min(input_.find('<', pos_), input_.size());
        WSQ_RETURN_IF_ERROR(AppendDecoded(input_.substr(start, pos_ - start),
                                          node.mutable_text()));
      }
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

std::string_view LocalName(std::string_view qualified) {
  const size_t colon = qualified.rfind(':');
  return colon == std::string_view::npos ? qualified
                                         : qualified.substr(colon + 1);
}

void XmlNode::AddAttribute(std::string name, std::string value) {
  attributes_.emplace_back(std::move(name), std::move(value));
}

XmlNode& XmlNode::AddChild(XmlNode child) {
  children_.push_back(std::move(child));
  return children_.back();
}

Result<const XmlNode*> XmlNode::Child(std::string_view name) const {
  for (const XmlNode& child : children_) {
    if (child.name() == name) return &child;
  }
  return Status::NotFound("no child element named " + std::string(name));
}

Result<std::string> XmlNode::ChildText(std::string_view name) const {
  Result<const XmlNode*> child = Child(name);
  if (!child.ok()) return child.status();
  return child.value()->text();
}

void XmlNode::AppendTo(std::string& out) const {
  out += '<';
  out += name_;
  for (const auto& [attr_name, value] : attributes_) {
    out += ' ';
    out += attr_name;
    out += "=\"";
    AppendXmlEscaped(value, out);
    out += '"';
  }
  if (text_.empty() && children_.empty()) {
    out += "/>";
    return;
  }
  out += '>';
  AppendXmlEscaped(text_, out);
  for (const XmlNode& child : children_) child.AppendTo(out);
  out += "</";
  out += name_;
  out += '>';
}

Result<XmlNode> ParseXml(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

}  // namespace wsq
