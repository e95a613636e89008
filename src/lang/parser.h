#ifndef BAGALG_LANG_PARSER_H_
#define BAGALG_LANG_PARSER_H_

/// \file parser.h
/// Recursive-descent parser for values, types, and algebra expressions.
///
/// Expression syntax (function-style, unambiguous):
///
///   e ::= NAME                         -- database input (or bound variable)
///       | 'VALUE                       -- literal complex object
///       | uplus(e, e) | monus(e, e) | umax(e, e) | inter(e, e) | prod(e, e)
///       | tup(e, ...) | bag(e) | proj(N, e)
///       | pow(e) | powbag(e) | flat(e) | dedup(e)
///       | map(x -> e, e) | sel(x -> e == e, e)
///       | nest([N, ...], e) | unnest([N], e)
///       | ifp(x -> e, e) | bifp(x -> e, e, e)
///
///   VALUE ::= atom | [VALUE, ...] | {{ VALUE (*N)?, ... }}
///   TYPE  ::= U | _ | [TYPE, ...] | {{TYPE}}
///
/// Variable names are resolved to de Bruijn indices; the operator keywords
/// are reserved (a database bag may not use them as its name).

#include <string_view>

#include "src/algebra/expr.h"
#include "src/core/type.h"
#include "src/core/value.h"
#include "src/util/result.h"

namespace bagalg::lang {

/// Parses a complete value; atoms are interned into `table` (the global
/// table if null). A bag literal whose elements hold no bag is parsed
/// straight into its flat rows: no Value is built for its elements.
Result<Value> ParseValue(std::string_view text, AtomTable* table = nullptr);

/// Parses a complete type.
Result<Type> ParseType(std::string_view text);

/// Parses a complete algebra expression.
Result<Expr> ParseExpr(std::string_view text, AtomTable* table = nullptr);

/// True iff `name` is a reserved operator keyword.
bool IsReservedWord(std::string_view name);

}  // namespace bagalg::lang

#endif  // BAGALG_LANG_PARSER_H_
