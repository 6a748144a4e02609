#ifndef WSQ_COMMON_BYTE_SCAN_H_
#define WSQ_COMMON_BYTE_SCAN_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace wsq {

/// A short list of special bytes, and the two forms the scanners read
/// it in: a 256-entry lookup table (the scalar path) and each byte
/// repeated across a 16-byte lane (the SIMD compares). Both derive
/// from the list alone, so any two sets of the same bytes scan the
/// same way.
class ByteSet {
 public:
  /// The most bytes a set holds: the SIMD probe makes one compare per
  /// byte, always this many.
  static constexpr size_t kMaxBytes = 8;

  /// The set of the bytes of a string literal (its terminating NUL
  /// excluded).
  template <size_t N>
  constexpr explicit ByteSet(const char (&bytes)[N]) {
    static_assert(N >= 2, "a byte set holds at least one byte");
    static_assert(N - 1 <= kMaxBytes, "a byte set holds at most 8 bytes");
    for (size_t k = 0; k < kMaxBytes; ++k) {
      // Unused lanes repeat the first byte, which the set holds anyway.
      const char c = bytes[k < N - 1 ? k : 0];
      for (char& lane : lanes_[k]) lane = c;
      table_[static_cast<unsigned char>(c)] = true;
    }
  }

  constexpr bool contains(unsigned char c) const { return table_[c]; }

#if defined(__SSE2__)
  /// 0xff in each lane of `chunk` that holds a byte of the set.
  __m128i Hits(__m128i chunk) const {
    const auto lane = [&](size_t k) {
      return _mm_cmpeq_epi8(
          chunk, _mm_load_si128(reinterpret_cast<const __m128i*>(lanes_[k])));
    };
    return _mm_or_si128(
        _mm_or_si128(_mm_or_si128(lane(0), lane(1)),
                     _mm_or_si128(lane(2), lane(3))),
        _mm_or_si128(_mm_or_si128(lane(4), lane(5)),
                     _mm_or_si128(lane(6), lane(7))));
  }
#endif

 private:
  alignas(16) char lanes_[kMaxBytes][16] = {};
  std::array<bool, 256> table_{};
};

/// The bytes XML text and attribute values carry as entities.
inline constexpr ByteSet kXmlSpecialBytes("&<>\"'");

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
/// Eight bytes are tested per branch, and a tail shorter than eight is
/// tested in one branch as the text's last eight bytes; a hit there
/// (possibly before `from`) only sends the search on byte by byte.
inline size_t FindInSet(std::string_view text, size_t from,
                        const ByteSet& set) {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const size_t n = text.size();
  const auto any_of_eight = [&](size_t at) {
    return set.contains(p[at]) | set.contains(p[at + 1]) |
           set.contains(p[at + 2]) | set.contains(p[at + 3]) |
           set.contains(p[at + 4]) | set.contains(p[at + 5]) |
           set.contains(p[at + 6]) | set.contains(p[at + 7]);
  };
  size_t i = from;
  while (i + 8 <= n && !any_of_eight(i)) i += 8;
  if (i + 8 > n && n >= 8 && !any_of_eight(n - 8)) return n;
  while (i < n && !set.contains(p[i])) ++i;
  return i;
}

namespace byte_scan_internal {

/// CopyIfClean on any target: FindInSet's scan, then a copy.
inline bool CopyIfCleanScalar(std::string_view value, const ByteSet& set,
                              char* dst) {
  std::copy(value.begin(), value.end(), dst);
  return FindInSet(value, 0, set) == value.size();
}

#if defined(__SSE2__)
/// Whether no byte of `value` is in `set`, in one pass of 16-byte
/// loads, each compared and, when kCopy, stored at `dst`. A value of 16
/// bytes or more ends on one chunk that overlaps the one before it; a
/// shorter value is two overlapping 8- or 4-byte loads, and one under 4
/// bytes goes byte by byte. Every load and store stays within the value
/// and its destination.
template <bool kCopy>
inline bool ScanSse2(std::string_view value, const ByteSet& set, char* dst) {
  const char* src = value.data();
  const size_t n = value.size();
  if (n < 4) {
    bool clean = true;
    for (size_t i = 0; i < n; ++i) {
      if constexpr (kCopy) dst[i] = src[i];
      clean &= !set.contains(static_cast<unsigned char>(src[i]));
    }
    return clean;
  }
  if (n < 8) {
    uint32_t head;
    uint32_t tail;
    std::memcpy(&head, src, 4);
    std::memcpy(&tail, src + n - 4, 4);
    if constexpr (kCopy) {
      std::memcpy(dst, &head, 4);
      std::memcpy(dst + n - 4, &tail, 4);
    }
    const __m128i both =
        _mm_unpacklo_epi32(_mm_cvtsi32_si128(static_cast<int>(head)),
                           _mm_cvtsi32_si128(static_cast<int>(tail)));
    // Only the low eight lanes hold the value's bytes.
    return (_mm_movemask_epi8(set.Hits(both)) & 0xff) == 0;
  }
  if (n < 16) {
    const __m128i head = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src));
    const __m128i tail =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + n - 8));
    if constexpr (kCopy) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), head);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + n - 8), tail);
    }
    return _mm_movemask_epi8(set.Hits(_mm_unpacklo_epi64(head, tail))) == 0;
  }
  __m128i hits = _mm_setzero_si128();
  const auto scan_chunk = [&](size_t at) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + at));
    hits = _mm_or_si128(hits, set.Hits(chunk));
    if constexpr (kCopy) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + at), chunk);
    }
  };
  for (size_t i = 0; i + 16 < n; i += 16) scan_chunk(i);
  scan_chunk(n - 16);
  return _mm_movemask_epi8(hits) == 0;
}

/// CopyIfClean in ScanSse2's one pass.
inline bool CopyIfCleanSse2(std::string_view value, const ByteSet& set,
                            char* dst) {
  return ScanSse2<true>(value, set, dst);
}
#endif

}  // namespace byte_scan_internal

/// Copies `value` to `dst`, which has room for value.size() bytes, and
/// returns whether none of its bytes is in `set`: the escapers' scan
/// and their copy of a clean value in one pass. Reads only the value's
/// bytes and writes only `dst[0, value.size())`.
inline bool CopyIfClean(std::string_view value, const ByteSet& set,
                        char* dst) {
#if defined(__SSE2__)
  return byte_scan_internal::CopyIfCleanSse2(value, set, dst);
#else
  return byte_scan_internal::CopyIfCleanScalar(value, set, dst);
#endif
}

/// Whether some byte of `text` is in `set`: FindInSet's answer to
/// "is there one at all", 16 bytes per compare on SSE2.
inline bool ContainsAny(std::string_view text, const ByteSet& set) {
#if defined(__SSE2__)
  return !byte_scan_internal::ScanSse2<false>(text, set, nullptr);
#else
  return FindInSet(text, 0, set) != text.size();
#endif
}

/// Appends `raw` to `out` with every byte in `set` replaced by
/// `escape(byte)`. A clean value, the common case, is copied by one
/// CopyIfClean; otherwise the clean runs between special bytes are
/// copied whole.
template <typename Escape>
void AppendEscaped(std::string_view raw, const ByteSet& set, Escape escape,
                   std::string& out) {
  const size_t start = out.size();
  out.resize(start + raw.size());
  if (CopyIfClean(raw, set, out.data() + start)) return;
  out.resize(start);
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
