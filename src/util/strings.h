#ifndef BAGALG_UTIL_STRINGS_H_
#define BAGALG_UTIL_STRINGS_H_

/// \file strings.h
/// Small string helpers shared by printers and parsers.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace bagalg {

/// Joins the string forms of a range with a separator.
template <typename Range>
std::string JoinToString(const Range& range, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : range) {
    if (!first) os << sep;
    os << item;
    first = false;
  }
  return os.str();
}

/// True iff `text` starts with `prefix`.
inline bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// Splits on a single character separator (no trimming, keeps empties).
std::vector<std::string> SplitString(std::string_view text, char sep);

/// Copies `n` bytes from `src` to `dst` and returns dst + n. Up to 32
/// bytes take two overlapping loads and stores, inline: atom names and the
/// pieces between them are that short, and a call into memcpy per copy
/// would cost more than the copy. Reads and writes only [src, src + n)
/// and [dst, dst + n).
inline char* CopyBytes(char* dst, const char* src, size_t n) {
  // Two copies of one word, from each end, cover n in [w, 2w] for a
  // word of w bytes.
  const auto ends = [&](auto word) {
    std::memcpy(&word, src, sizeof(word));
    auto tail = word;
    std::memcpy(&tail, src + n - sizeof(word), sizeof(word));
    std::memcpy(dst, &word, sizeof(word));
    std::memcpy(dst + n - sizeof(word), &tail, sizeof(word));
  };
  struct Bytes16 {
    uint64_t lo, hi;
  };
  if (n > 32) {
    std::memcpy(dst, src, n);
  } else if (n >= 16) {
    ends(Bytes16{});
  } else if (n >= 8) {
    ends(uint64_t{});
  } else if (n >= 4) {
    ends(uint32_t{});
  } else if (n > 0) {
    dst[0] = src[0];
    dst[n / 2] = src[n / 2];
    dst[n - 1] = src[n - 1];
  }
  return dst + n;
}

}  // namespace bagalg

#endif  // BAGALG_UTIL_STRINGS_H_
