#ifndef BAGALG_UTIL_STRINGS_H_
#define BAGALG_UTIL_STRINGS_H_

/// \file strings.h
/// Small string helpers shared by printers and parsers.

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

}  // namespace bagalg

#endif  // BAGALG_UTIL_STRINGS_H_
