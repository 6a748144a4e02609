#ifndef WSQ_COMMON_BYTE_SCAN_H_
#define WSQ_COMMON_BYTE_SCAN_H_

#include <array>
#include <cstddef>
#include <string_view>

namespace wsq {

/// A set of byte values, one flag per value.
using ByteSet = std::array<bool, 256>;

/// Index of the first byte of `text` at or after `from` that is in
/// `set`, or text.size() when there is none. The escapers' common case
/// is a long run with nothing to escape, so eight bytes are tested per
/// branch.
inline size_t FindInSet(std::string_view text, size_t from,
                        const ByteSet& set) {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const size_t n = text.size();
  size_t i = from;
  while (i + 8 <= n && !(set[p[i]] | set[p[i + 1]] | set[p[i + 2]] |
                         set[p[i + 3]] | set[p[i + 4]] | set[p[i + 5]] |
                         set[p[i + 6]] | set[p[i + 7]])) {
    i += 8;
  }
  while (i < n && !set[p[i]]) ++i;
  return i;
}

}  // namespace wsq

#endif  // WSQ_COMMON_BYTE_SCAN_H_
