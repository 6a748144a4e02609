#ifndef WSQ_COMMON_BYTE_SCAN_H_
#define WSQ_COMMON_BYTE_SCAN_H_

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

namespace wsq {

/// A set of byte values, one flag per value.
using ByteSet = std::array<bool, 256>;

/// The set holding exactly the bytes of `bytes`.
constexpr ByteSet ByteSetOf(std::string_view bytes) {
  ByteSet set{};
  for (char c : bytes) set[static_cast<unsigned char>(c)] = true;
  return set;
}

/// Every byte in `a` or in `b`.
constexpr ByteSet ByteSetUnion(const ByteSet& a, const ByteSet& b) {
  ByteSet set{};
  for (size_t i = 0; i < set.size(); ++i) set[i] = a[i] || b[i];
  return set;
}

/// The bytes XML text and attribute values carry as entities.
inline constexpr ByteSet kXmlSpecialBytes = ByteSetOf("&<>\"'");

/// The entity for a byte of kXmlSpecialBytes.
constexpr std::string_view XmlEntity(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    case '"':
      return "&quot;";
    default:
      return "&apos;";
  }
}

/// Index of the first byte of `text` at or after `from` (at most
/// text.size()) that is in `set`, or text.size() when there is none.
/// The escapers' common case is a short field with nothing to escape,
/// so eight bytes are tested per branch, and a tail shorter than eight
/// is tested in one branch as the text's last eight bytes; a hit there
/// (possibly before `from`) only sends the search on byte by byte.
inline size_t FindInSet(std::string_view text, size_t from,
                        const ByteSet& set) {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const size_t n = text.size();
  const auto any_of_eight = [&](size_t at) {
    return set[p[at]] | set[p[at + 1]] | set[p[at + 2]] | set[p[at + 3]] |
           set[p[at + 4]] | set[p[at + 5]] | set[p[at + 6]] | set[p[at + 7]];
  };
  size_t i = from;
  while (i + 8 <= n && !any_of_eight(i)) i += 8;
  if (i + 8 > n && n >= 8 && !any_of_eight(n - 8)) return n;
  while (i < n && !set[p[i]]) ++i;
  return i;
}

/// Appends `raw` to `out` with every byte in `set` replaced by
/// `escape(byte)`; clean runs are copied whole.
template <typename Escape>
void AppendEscaped(std::string_view raw, const ByteSet& set, Escape escape,
                   std::string& out) {
  size_t run = 0;
  for (size_t i = FindInSet(raw, 0, set); i < raw.size();
       i = FindInSet(raw, run, set)) {
    out.append(raw.substr(run, i - run));
    out.append(escape(raw[i]));
    run = i + 1;
  }
  out.append(raw.substr(run));
}

}  // namespace wsq

#endif  // WSQ_COMMON_BYTE_SCAN_H_
