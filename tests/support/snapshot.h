#ifndef WSQ_TESTS_SUPPORT_SNAPSHOT_H_
#define WSQ_TESTS_SUPPORT_SNAPSHOT_H_

#include <cstdlib>
#include <string>
#include <string_view>

#include "wsq/common/status.h"
#include "wsq/obs/state_snapshot.h"

namespace wsq {

/// Value for `key` in `snapshot`, or nullptr when absent. First match
/// wins.
inline const std::string* SnapshotFind(const StateSnapshot& snapshot,
                                       std::string_view key) {
  for (const auto& [k, v] : snapshot.entries()) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Parses the value for `key` as a double; kNotFound when the key is
/// absent, kInvalidArgument when the value is not numeric.
inline Result<double> SnapshotNumber(const StateSnapshot& snapshot,
                                     std::string_view key) {
  const std::string* value = SnapshotFind(snapshot, key);
  if (value == nullptr) {
    return Status::NotFound("no snapshot entry named '" + std::string(key) +
                            "'");
  }
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    return Status::InvalidArgument("snapshot entry '" + std::string(key) +
                                   "' is not numeric: " + *value);
  }
  return parsed;
}

}  // namespace wsq

#endif  // WSQ_TESTS_SUPPORT_SNAPSHOT_H_
