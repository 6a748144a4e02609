#include "wsq/obs/state_snapshot.h"

#include <cstdio>

#include "wsq/obs/json_lite.h"

namespace wsq {

void StateSnapshot::Add(std::string_view key, std::string_view value) {
  entries_.emplace_back(std::string(key), std::string(value));
}

void StateSnapshot::Add(std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  entries_.emplace_back(std::string(key), buf);
}

void StateSnapshot::Add(std::string_view key, int64_t value) {
  entries_.emplace_back(std::string(key), std::to_string(value));
}

void StateSnapshot::Append(const StateSnapshot& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

std::string StateSnapshot::ToJsonObject() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : entries_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(key);
    out += "\":\"";
    out += JsonEscape(value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace wsq
