#include "support/json_check.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace wsq {
namespace {

/// Minimal recursive-descent JSON syntax checker (RFC 8259).
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  Status Check() {
    WSQ_RETURN_IF_ERROR(Value());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after the top-level value");
    }
    return Status::Ok();
  }

 private:
  Status Fail(std::string_view what) const {
    return Status::InvalidArgument("json at offset " + std::to_string(pos_) +
                                   ": " + std::string(what));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return Status::Ok();
  }

  Status String() {
    if (!Eat('"')) return Fail("expected string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
            ++pos_;
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return Fail("bad escape character");
        }
      }
    }
    return Fail("unterminated string");
  }

  Status NumberToken() {
    const size_t start = pos_;
    Eat('-');
    if (!Eat('0')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (Eat('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected fraction digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected exponent digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start) return Fail("expected number");
    return Status::Ok();
  }

  Status Value() {
    if (++depth_ > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = Object();
        break;
      case '[':
        status = Array();
        break;
      case '"':
        status = String();
        break;
      case 't':
        status = Literal("true");
        break;
      case 'f':
        status = Literal("false");
        break;
      case 'n':
        status = Literal("null");
        break;
      default:
        status = NumberToken();
    }
    --depth_;
    return status;
  }

  Status Object() {
    Eat('{');
    SkipWhitespace();
    if (Eat('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      WSQ_RETURN_IF_ERROR(String());
      SkipWhitespace();
      if (!Eat(':')) return Fail("expected ':' in object");
      WSQ_RETURN_IF_ERROR(Value());
      SkipWhitespace();
      if (Eat('}')) return Status::Ok();
      if (!Eat(',')) return Fail("expected ',' or '}' in object");
    }
  }

  Status Array() {
    Eat('[');
    SkipWhitespace();
    if (Eat(']')) return Status::Ok();
    while (true) {
      WSQ_RETURN_IF_ERROR(Value());
      SkipWhitespace();
      if (Eat(']')) return Status::Ok();
      if (!Eat(',')) return Fail("expected ',' or ']' in array");
    }
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

/// Scans one JSON string literal starting at `pos` (which must point at
/// the opening quote of pre-validated JSON) and returns its raw content.
std::string_view ScanString(std::string_view text, size_t* pos) {
  const size_t start = ++*pos;  // skip opening quote
  while (text[*pos] != '"') {
    if (text[*pos] == '\\') ++*pos;
    ++*pos;
  }
  std::string_view body = text.substr(start, *pos - start);
  ++*pos;  // closing quote
  return body;
}

void SkipWs(std::string_view text, size_t* pos) {
  while (*pos < text.size() &&
         (text[*pos] == ' ' || text[*pos] == '\t' || text[*pos] == '\n' ||
          text[*pos] == '\r')) {
    ++*pos;
  }
}

/// Skips one pre-validated JSON value starting at `pos`.
void SkipValue(std::string_view text, size_t* pos) {
  SkipWs(text, pos);
  const char c = text[*pos];
  if (c == '"') {
    ScanString(text, pos);
    return;
  }
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    int depth = 0;
    while (*pos < text.size()) {
      const char cur = text[*pos];
      if (cur == '"') {
        ScanString(text, pos);
        continue;
      }
      if (cur == c) ++depth;
      if (cur == close && --depth == 0) {
        ++*pos;
        return;
      }
      ++*pos;
    }
    return;
  }
  while (*pos < text.size() && text[*pos] != ',' && text[*pos] != '}' &&
         text[*pos] != ']') {
    ++*pos;
  }
}

/// One event object: checks the required Chrome trace-event members.
Status CheckEventObject(std::string_view event, size_t index) {
  const auto fail = [index](std::string_view what) {
    return Status::InvalidArgument("traceEvents[" + std::to_string(index) +
                                   "]: " + std::string(what));
  };
  bool has_name = false, has_ph = false, has_ts = false, has_pid = false,
       has_tid = false, has_dur = false;
  std::string phase;

  size_t pos = 0;
  SkipWs(event, &pos);
  if (pos >= event.size() || event[pos] != '{') {
    return fail("event is not an object");
  }
  ++pos;
  SkipWs(event, &pos);
  if (pos < event.size() && event[pos] == '}') {
    return fail("event object is empty");
  }
  while (pos < event.size()) {
    SkipWs(event, &pos);
    const std::string_view key = ScanString(event, &pos);
    SkipWs(event, &pos);
    ++pos;  // ':'
    SkipWs(event, &pos);
    if (key == "name") {
      has_name = true;
    } else if (key == "ph") {
      has_ph = true;
      if (event[pos] == '"') {
        size_t p = pos;
        phase = std::string(ScanString(event, &p));
      }
    } else if (key == "ts") {
      has_ts = true;
    } else if (key == "pid") {
      has_pid = true;
    } else if (key == "tid") {
      has_tid = true;
    } else if (key == "dur") {
      has_dur = true;
    }
    SkipValue(event, &pos);
    SkipWs(event, &pos);
    if (pos < event.size() && event[pos] == ',') {
      ++pos;
      continue;
    }
    break;
  }
  if (!has_name) return fail("missing \"name\"");
  if (!has_ph) return fail("missing \"ph\"");
  if (!has_ts) return fail("missing \"ts\"");
  if (!has_pid) return fail("missing \"pid\"");
  if (!has_tid) return fail("missing \"tid\"");
  if (phase == "X" && !has_dur) {
    return fail("complete event (ph=X) missing \"dur\"");
  }
  return Status::Ok();
}

}  // namespace

Status CheckJson(std::string_view text) {
  return JsonChecker(text).Check();
}

Status CheckChromeTrace(std::string_view text) {
  WSQ_RETURN_IF_ERROR(CheckJson(text));

  // The document is now known to be well-formed; walk the top level.
  size_t pos = 0;
  SkipWs(text, &pos);
  if (pos >= text.size() || text[pos] != '{') {
    return Status::InvalidArgument("chrome trace: top level is not an object");
  }
  ++pos;
  SkipWs(text, &pos);
  while (pos < text.size() && text[pos] != '}') {
    const std::string_view key = ScanString(text, &pos);
    SkipWs(text, &pos);
    ++pos;  // ':'
    SkipWs(text, &pos);
    if (key != "traceEvents") {
      SkipValue(text, &pos);
      SkipWs(text, &pos);
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        SkipWs(text, &pos);
      }
      continue;
    }
    if (text[pos] != '[') {
      return Status::InvalidArgument("chrome trace: traceEvents not an array");
    }
    ++pos;
    SkipWs(text, &pos);
    size_t index = 0;
    while (pos < text.size() && text[pos] != ']') {
      const size_t start = pos;
      SkipValue(text, &pos);
      WSQ_RETURN_IF_ERROR(
          CheckEventObject(text.substr(start, pos - start), index));
      ++index;
      SkipWs(text, &pos);
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        SkipWs(text, &pos);
      }
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("chrome trace: missing \"traceEvents\"");
}

}  // namespace wsq
