#include "src/net/json_reader.h"

#include <cmath>
#include <cstdlib>

namespace bagalg::net {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kString) return std::string(fallback);
  return v->string;
}

uint64_t JsonValue::GetUint(std::string_view key, uint64_t fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsUint().value_or(fallback);
}

std::optional<uint64_t> JsonValue::AsUint() const {
  if (kind != Kind::kNumber) return std::nullopt;
  if (!(number >= 0) || number != std::floor(number) ||
      number > 9007199254740992.0) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(number);
}

namespace {

/// Recursive-descent parser over a string_view. Tracks the byte offset for
/// error messages; every failure path is a typed kParseError.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue root;
    BAGALG_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing content after JSON document");
    }
    return root;
  }

 private:
  Status Err(std::string_view what) const {
    return Status::ParseError("json: " + std::string(what) + " at byte " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Err(std::string("expected '") + c + "'");
    }
    return Status::Ok();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Err("nesting too deep");
    SkipWs();
    if (AtEnd()) return Err("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ConsumeWord("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Err("unrecognized token");
    }
    pos_ += word.size();
    return Status::Ok();
  }

  Status ParseKeyword(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (Peek() == 't') {
      out->boolean = true;
      return ConsumeWord("true");
    }
    out->boolean = false;
    return ConsumeWord("false");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("unrecognized token");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(d)) {
      pos_ = start;
      return Err("malformed number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = d;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    BAGALG_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (true) {
      if (AtEnd()) return Err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return Err("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          BAGALG_RETURN_IF_ERROR(ParseHex4(&code));
          // Surrogate pairs: a high surrogate must be followed by \uDC00..
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!Consume('\\') || !Consume('u')) {
              return Err("lone high surrogate");
            }
            uint32_t low = 0;
            BAGALG_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Err("bad low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Err("lone low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Err("bad hex digit in \\u escape");
      }
    }
    *out = value;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    BAGALG_RETURN_IF_ERROR(Expect('['));
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue item;
      BAGALG_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->items.push_back(std::move(item));
      SkipWs();
      if (Consume(']')) return Status::Ok();
      BAGALG_RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    BAGALG_RETURN_IF_ERROR(Expect('{'));
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWs();
      std::string key;
      BAGALG_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      BAGALG_RETURN_IF_ERROR(Expect(':'));
      JsonValue value;
      BAGALG_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return Status::Ok();
      BAGALG_RETURN_IF_ERROR(Expect(','));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace bagalg::net
