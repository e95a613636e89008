#include "src/lang/lexer.h"

namespace bagalg::lang {

namespace {

// The character classes of <cctype> in the "C" locale (the program never
// sets another), written out so the lexer makes no library call per byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

}  // namespace

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kLBagBrace:
      return "'{{'";
    case TokenKind::kRBagBrace:
      return "'}}'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kArrow:
      return "'->'";
    case TokenKind::kEqEq:
      return "'=='";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kQuote:
      return "'''";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kUnderscore:
      return "'_'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  // Most tokens are longer than a byte or followed by a space: 3/4 of a
  // token per byte covers the usual statement, so a wide literal's token
  // array is allocated once instead of being regrown a dozen times.
  std::vector<Token> tokens;
  tokens.reserve(input.size() / 4 * 3 + 2);
  size_t i = 0;
  auto push = [&](TokenKind kind, size_t start, size_t len) {
    tokens.push_back(Token{kind, input.substr(start, len), start});
  };
  while (i < input.size()) {
    char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < input.size() && input[i] != '\n') ++i;
      continue;
    }
    if (IsDigit(c)) {
      size_t start = i;
      while (i < input.size() && IsDigit(input[i])) ++i;
      push(TokenKind::kNumber, start, i - start);
      continue;
    }
    if (IsAlpha(c)) {
      size_t start = i;
      while (i < input.size() &&
             (IsAlpha(input[i]) || IsDigit(input[i]) || input[i] == '_')) {
        ++i;
      }
      push(TokenKind::kIdent, start, i - start);
      continue;
    }
    switch (c) {
      case '(':
        push(TokenKind::kLParen, i, 1);
        ++i;
        continue;
      case ')':
        push(TokenKind::kRParen, i, 1);
        ++i;
        continue;
      case '[':
        push(TokenKind::kLBracket, i, 1);
        ++i;
        continue;
      case ']':
        push(TokenKind::kRBracket, i, 1);
        ++i;
        continue;
      case ',':
        push(TokenKind::kComma, i, 1);
        ++i;
        continue;
      case '*':
        push(TokenKind::kStar, i, 1);
        ++i;
        continue;
      case '\'':
        push(TokenKind::kQuote, i, 1);
        ++i;
        continue;
      case ':':
        push(TokenKind::kColon, i, 1);
        ++i;
        continue;
      case '_':
        push(TokenKind::kUnderscore, i, 1);
        ++i;
        continue;
      case '{':
        if (i + 1 < input.size() && input[i + 1] == '{') {
          push(TokenKind::kLBagBrace, i, 2);
          i += 2;
          continue;
        }
        return Status::ParseError("single '{' at offset " + std::to_string(i) +
                                  " (bags are written with '{{')");
      case '}':
        if (i + 1 < input.size() && input[i + 1] == '}') {
          push(TokenKind::kRBagBrace, i, 2);
          i += 2;
          continue;
        }
        return Status::ParseError("single '}' at offset " + std::to_string(i));
      case '-':
        if (i + 1 < input.size() && input[i + 1] == '>') {
          push(TokenKind::kArrow, i, 2);
          i += 2;
          continue;
        }
        return Status::ParseError("stray '-' at offset " + std::to_string(i));
      case '=':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenKind::kEqEq, i, 2);
          i += 2;
          continue;
        }
        push(TokenKind::kEq, i, 1);
        ++i;
        continue;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(i));
    }
  }
  tokens.push_back(Token{TokenKind::kEnd, {}, input.size()});
  return tokens;
}

}  // namespace bagalg::lang
