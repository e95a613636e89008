#ifndef BAGALG_LANG_LEXER_H_
#define BAGALG_LANG_LEXER_H_

/// \file lexer.h
/// Tokenizer for the bagalg surface syntax.
///
/// The surface language covers values ("{{[a, b]*3}}"), types
/// ("{{[U, U]}}"), and algebra expressions
/// ("map(v0 -> proj(1, v0), sel(v0 -> proj(1, v0) == proj(2, v0), B))").
/// Expr::ToString emits exactly this syntax, and the parser round-trips it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace bagalg::lang {

enum class TokenKind {
  kIdent,       ///< identifiers: bag names, variables, atoms, keywords
  kNumber,      ///< decimal naturals (multiplicities, attribute indices)
  kLParen,      ///< (
  kRParen,      ///< )
  kLBracket,    ///< [
  kRBracket,    ///< ]
  kLBagBrace,   ///< {{
  kRBagBrace,   ///< }}
  kComma,       ///< ,
  kArrow,       ///< ->
  kEqEq,        ///< ==
  kEq,          ///< =
  kStar,        ///< *
  kQuote,       ///< '
  kColon,       ///< :
  kUnderscore,  ///< _ (the Bottom type)
  kEnd,         ///< end of input
};

/// One token with its source offset (for error messages). `text` is a view
/// into the input passed to Tokenize: it stays valid only while that input
/// lives, so a caller that keeps a token's text past the input copies it.
struct Token {
  TokenKind kind;
  std::string_view text;
  size_t offset = 0;
};

/// Tokenizes the whole of `input` before returning, so a lexical error
/// anywhere in it is reported ahead of any syntax error; "#" starts a
/// comment running to end of line.
Result<std::vector<Token>> Tokenize(std::string_view input);

/// Debug name of a token kind.
const char* TokenKindName(TokenKind kind);

}  // namespace bagalg::lang

#endif  // BAGALG_LANG_LEXER_H_
