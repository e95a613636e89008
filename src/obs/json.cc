#include "src/obs/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

namespace bagalg::obs {

void AppendJsonEscaped(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  // Bytes that need no escape are appended a run at a time.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  AppendJsonEscaped(&out, text);
  out += '"';
  return out;
}

void WriteJsonNumber(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << 0;
    return;
  }
  if (value == static_cast<double>(static_cast<int64_t>(value))) {
    os << static_cast<int64_t>(value);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  os << buf;
}

}  // namespace bagalg::obs
