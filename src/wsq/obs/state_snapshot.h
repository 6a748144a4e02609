#ifndef WSQ_OBS_STATE_SNAPSHOT_H_
#define WSQ_OBS_STATE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wsq {

/// Ordered key/value introspection snapshot — the currency of runtime
/// observability. Controllers expose their internal state through
/// `Controller::DebugState()` as one of these (current gain, phase,
/// sign-switch count, RLS estimates, ...), and the tracer serializes the
/// entries verbatim into trace-event `args`, so the keys a controller
/// chooses are exactly the keys an analyst sees in Perfetto.
///
/// Entries keep insertion order (controllers list the most important
/// state first) and values are stored as strings; numeric values are
/// formatted with round-trip precision so readers can parse them back
/// exactly.
class StateSnapshot {
 public:
  void Add(std::string_view key, std::string_view value);
  /// Without this overload a `const char*` value would prefer the bool
  /// overload (pointer-to-bool is a standard conversion, string_view is
  /// user-defined) and silently store "true".
  void Add(std::string_view key, const char* value) {
    Add(key, std::string_view(value));
  }
  void Add(std::string_view key, double value);
  void Add(std::string_view key, int64_t value);
  void Add(std::string_view key, int value) {
    Add(key, static_cast<int64_t>(value));
  }
  void Add(std::string_view key, bool value) {
    Add(key, std::string_view(value ? "true" : "false"));
  }

  /// Appends every entry of `other` (used by composite controllers to
  /// splice in the state of the controller they delegate to).
  void Append(const StateSnapshot& other);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// Renders the snapshot as a JSON object ({"key":"value",...}), the
  /// form the tracer embeds as event args.
  std::string ToJsonObject() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace wsq

#endif  // WSQ_OBS_STATE_SNAPSHOT_H_
