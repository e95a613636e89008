#ifndef BAGALG_OBS_JSON_H_
#define BAGALG_OBS_JSON_H_

/// \file json.h
/// Minimal JSON emission helpers shared by the obs exporters (Chrome
/// trace-event files and flat metrics dumps). Emission only — the one
/// component that must *parse* JSON (the bagalgd request path) has its own
/// defensive reader in src/net/json_reader.h.

#include <ostream>
#include <string>
#include <string_view>

namespace bagalg::obs {

/// Appends `text` to `out` with JSON string escaping (quotes, backslash,
/// control characters); the surrounding quotes are NOT added. Runs that
/// need no escape are found a word (8 bytes) at a time and copied whole.
void AppendJsonEscaped(std::string* out, std::string_view text);

/// The most bytes WriteJsonEscaped writes for one byte of text ("\u001f").
inline constexpr size_t kMaxJsonEscapeBytes = 6;

/// Writes the escaped `text` (the bytes AppendJsonEscaped appends) at
/// `dst`, which must have room for kMaxJsonEscapeBytes per byte of text,
/// and returns the end of what it wrote.
char* WriteJsonEscaped(char* dst, std::string_view text);

/// Returns `text` as a quoted, escaped JSON string literal.
std::string JsonQuote(std::string_view text);

/// Writes a finite double the way JSON wants it (no inf/nan — those are
/// clamped to 0); integral values print without a trailing ".0".
void WriteJsonNumber(std::ostream& os, double value);

}  // namespace bagalg::obs

#endif  // BAGALG_OBS_JSON_H_
