#ifndef BAGALG_NET_JSON_READER_H_
#define BAGALG_NET_JSON_READER_H_

/// \file json_reader.h
/// A small, defensive JSON parser for bagalgd request bodies.
///
/// obs/json.h is emission-only by design; the server is the first bagalg
/// component that must *consume* JSON, and it consumes it from untrusted
/// clients, so the parser is written robustness-first: recursion is bounded
/// (kMaxDepth), inputs must be consumed entirely, numbers are plain doubles
/// (bagalg multiplicities travel as decimal strings precisely because JSON
/// numbers lose precision past 2^53), and every malformation is a typed
/// kParseError naming the byte offset — never a crash, never an accepted
/// prefix.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace bagalg::net {

/// A parsed JSON document node. Plain aggregate (no variant gymnastics):
/// exactly one of the payload members is meaningful, selected by kind.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_string() const { return kind == Kind::kString; }

  /// First member with `key` in an object; nullptr when absent or when this
  /// is not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Member `key` as a string; `fallback` when absent or not a string.
  std::string GetString(std::string_view key,
                        std::string_view fallback = "") const;

  /// Member `key` as a non-negative integer; `fallback` when absent, not a
  /// number, negative, or not integral.
  uint64_t GetUint(std::string_view key, uint64_t fallback = 0) const;

  /// This node as a non-negative integer; nullopt when it is not a number,
  /// negative, not integral, or past 2^53 (where doubles stop being exact).
  std::optional<uint64_t> AsUint() const;
};

/// Nesting bound: a request body has no business nesting deeper than this,
/// and the bound is what keeps parse recursion off attacker control.
inline constexpr int kMaxJsonDepth = 32;

/// Parses `text` as one complete JSON document (trailing whitespace
/// allowed, anything else after the document is a kParseError).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace bagalg::net

#endif  // BAGALG_NET_JSON_READER_H_
