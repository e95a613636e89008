#include "src/obs/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/util/strings.h"

namespace bagalg::obs {

namespace {

constexpr uint64_t kEveryByte = 0x0101010101010101ull;
constexpr uint64_t kHighBits = 0x8080808080808080ull;

/// Nonzero iff some byte of `word` is zero.
constexpr uint64_t HasZeroByte(uint64_t word) {
  return (word - kEveryByte) & ~word & kHighBits;
}

/// Nonzero iff some byte of `word` is a control character, '"' or '\\'.
/// Each test flags a byte that matches exactly (a borrow can only flag a
/// byte above one that matches), so a zero answer clears all eight.
uint64_t NeedsEscape(uint64_t word) {
  return ((word - kEveryByte * 0x20) & ~word & kHighBits) |
         HasZeroByte(word ^ (kEveryByte * '"')) |
         HasZeroByte(word ^ (kEveryByte * '\\'));
}

bool IsPlain(unsigned char c) { return c >= 0x20 && c != '"' && c != '\\'; }

/// True iff no byte of [p, p + n), n at most 16, needs an escape: the
/// bytes are read as two words, overlapping or padded with plain bytes.
bool ShortIsPlain(const char* p, size_t n) {
  uint64_t head = kEveryByte * 'a';
  uint64_t tail = head;
  if (n >= 8) {
    std::memcpy(&head, p, 8);
    std::memcpy(&tail, p + n - 8, 8);
  } else if (n >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    head = lo | (static_cast<uint64_t>(hi) << 32);
  } else if (n > 0) {
    head = (head << 24) | static_cast<unsigned char>(p[0]) |
           (static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8) |
           (static_cast<uint64_t>(static_cast<unsigned char>(p[n - 1])) << 16);
  }
  return (NeedsEscape(head) | NeedsEscape(tail)) == 0;
}

/// The length of the longest prefix of [p, end) that needs no escape.
size_t PlainRun(const char* p, const char* end) {
  const char* q = p;
  while (end - q >= 8) {
    uint64_t word;
    std::memcpy(&word, q, sizeof(word));
    if (NeedsEscape(word) != 0) break;
    q += 8;
  }
  while (q < end && IsPlain(static_cast<unsigned char>(*q))) ++q;
  return static_cast<size_t>(q - p);
}

/// Writes the escape of `c`, a byte IsPlain refuses; returns its end.
char* WriteEscape(char* dst, unsigned char c) {
  static constexpr char kHex[] = "0123456789abcdef";
  *dst++ = '\\';
  switch (c) {
    case '"':
    case '\\':
      *dst++ = static_cast<char>(c);
      return dst;
    case '\n':
      *dst++ = 'n';
      return dst;
    case '\r':
      *dst++ = 'r';
      return dst;
    case '\t':
      *dst++ = 't';
      return dst;
    default:
      *dst++ = 'u';
      *dst++ = '0';
      *dst++ = '0';
      *dst++ = kHex[c >> 4];
      *dst++ = kHex[c & 0xF];
      return dst;
  }
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view text) {
  out->reserve(out->size() + text.size());
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const size_t run = PlainRun(p, end);
    out->append(p, run);
    p += run;
    if (p == end) break;
    char escape[kMaxJsonEscapeBytes];
    const char* escape_end =
        WriteEscape(escape, static_cast<unsigned char>(*p++));
    out->append(escape, static_cast<size_t>(escape_end - escape));
  }
}

char* WriteJsonEscaped(char* dst, std::string_view text) {
  // Atom names are short, and almost all need no escape.
  if (text.size() <= 16 && ShortIsPlain(text.data(), text.size())) {
    return CopyBytes(dst, text.data(), text.size());
  }
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const size_t run = PlainRun(p, end);
    dst = CopyBytes(dst, p, run);
    p += run;
    if (p == end) break;
    dst = WriteEscape(dst, static_cast<unsigned char>(*p++));
  }
  return dst;
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
