#include "src/lang/parser.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/algebra/builder.h"
#include "src/lang/lexer.h"
#include "src/util/bignat.h"

namespace bagalg::lang {

namespace {

const std::unordered_map<std::string_view, ExprKind>& KeywordMap() {
  static const auto* map = new std::unordered_map<std::string_view, ExprKind>{
      {"uplus", ExprKind::kAdditiveUnion},
      {"monus", ExprKind::kSubtract},
      {"umax", ExprKind::kMaxUnion},
      {"inter", ExprKind::kIntersect},
      {"prod", ExprKind::kProduct},
      {"tup", ExprKind::kTupling},
      {"bag", ExprKind::kBagging},
      {"proj", ExprKind::kAttrProj},
      {"pow", ExprKind::kPowerset},
      {"powbag", ExprKind::kPowerbag},
      {"flat", ExprKind::kBagDestroy},
      {"dedup", ExprKind::kDupElim},
      {"map", ExprKind::kMap},
      {"sel", ExprKind::kSelect},
      {"nest", ExprKind::kNest},
      {"unnest", ExprKind::kUnnest},
      {"ifp", ExprKind::kIfp},
      {"bifp", ExprKind::kBoundedIfp},
  };
  return *map;
}

/// "reserved word 'NAME' cannot WHAT (offset N)" for the keyword `tok`.
Status ReservedWordError(const Token& tok, std::string_view what) {
  std::string message = "reserved word '";
  message += tok.text;
  message += "' cannot ";
  message += what;
  message += " (offset ";
  message += std::to_string(tok.offset);
  message += ")";
  return Status::ParseError(message);
}

/// Shared cursor over the token stream.
class Parser {
 public:
  Parser(std::vector<Token> tokens, AtomTable* table)
      : tokens_(std::move(tokens)),
        table_(table != nullptr ? table : &GlobalAtomTable()) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  Status Expect(TokenKind kind) {
    if (Peek().kind != kind) {
      return Status::ParseError(std::string("expected ") +
                                TokenKindName(kind) + " but found " +
                                TokenKindName(Peek().kind) + " at offset " +
                                std::to_string(Peek().offset));
    }
    ++pos_;
    return Status::Ok();
  }

  bool Accept(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status AtEnd() {
    if (Peek().kind != TokenKind::kEnd) {
      return Status::ParseError("trailing input at offset " +
                                std::to_string(Peek().offset));
    }
    return Status::Ok();
  }

  // --------------------------------------------------------------- values

  Result<Value> ParseValue() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kIdent:
      case TokenKind::kNumber:
        return Value::Atom(table_->Intern(Next().text));
      case TokenKind::kLBracket: {
        Next();
        std::vector<Value> fields;
        if (!Accept(TokenKind::kRBracket)) {
          while (true) {
            BAGALG_ASSIGN_OR_RETURN(Value v, ParseValue());
            fields.push_back(std::move(v));
            if (Accept(TokenKind::kRBracket)) break;
            BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
          }
        }
        return Value::Tuple(std::move(fields));
      }
      case TokenKind::kLBagBrace: {
        Next();
        const size_t first = pos_;
        if (std::optional<Bag> flat = ParseFlatBag()) {
          return Value::FromBag(*std::move(flat));
        }
        // Elements that hold a bag, or a literal the rows path gave up
        // on: parse it again into Values, which reports every error.
        pos_ = first;
        Bag::Builder builder;
        if (!Accept(TokenKind::kRBagBrace)) {
          while (true) {
            BAGALG_ASSIGN_OR_RETURN(Value v, ParseValue());
            Mult count(1);
            if (Accept(TokenKind::kStar)) {
              if (Peek().kind != TokenKind::kNumber) {
                return Status::ParseError(
                    "expected a multiplicity after '*' at offset " +
                    std::to_string(Peek().offset));
              }
              BAGALG_ASSIGN_OR_RETURN(count, BigNat::FromDecimal(Next().text));
            }
            builder.Add(std::move(v), std::move(count));
            if (Accept(TokenKind::kRBagBrace)) break;
            BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
          }
        }
        BAGALG_ASSIGN_OR_RETURN(Bag bag, std::move(builder).Build());
        return Value::FromBag(std::move(bag));
      }
      default:
        return Status::ParseError("expected a value at offset " +
                                  std::to_string(t.offset) + ", found " +
                                  TokenKindName(t.kind));
    }
  }

  /// Parses the elements and closing '}}' of a bag literal whose elements
  /// hold no bag (the cursor just past its '{{') straight into rows of
  /// atom cells: no Value is built. A zero-count element is dropped before
  /// its shape is looked at, as Bag::Builder::Add drops it; every other
  /// element must have the first kept element's shape. Returns nullopt,
  /// with the cursor anywhere in the literal, on an element that holds a
  /// bag, on a second shape and on a syntax error: the Value path then
  /// parses the literal again and gives it its result or its error.
  std::optional<Bag> ParseFlatBag() {
    std::vector<FlatRows> parts(1);
    FlatRows& rows = parts[0];
    std::string shape;
    std::string first_shape;
    if (!Accept(TokenKind::kRBagBrace)) {
      while (true) {
        const size_t mark = rows.cells.size();
        shape.clear();
        if (!ParseFlatElement(&rows.cells, &shape)) return std::nullopt;
        Mult count(1);
        if (Accept(TokenKind::kStar)) {
          if (Peek().kind != TokenKind::kNumber) return std::nullopt;
          Result<BigNat> n = BigNat::FromDecimal(Next().text);
          if (!n.ok()) return std::nullopt;
          count = *std::move(n);
        }
        if (count.IsZero()) {
          rows.cells.resize(mark);
        } else if (rows.empty()) {
          first_shape = shape;
          rows.counts.push_back(std::move(count));
        } else if (shape == first_shape) {
          rows.counts.push_back(std::move(count));
        } else {
          return std::nullopt;
        }
        if (Accept(TokenKind::kRBagBrace)) break;
        if (!Accept(TokenKind::kComma)) return std::nullopt;
      }
    }
    size_t at = 0;
    Type element = rows.empty() ? Type::Bottom() : ShapeType(first_shape, &at);
    rows.width = CellWidth(element);
    return Bag::FromRows(std::move(element), std::move(parts));
  }

  /// Appends the atoms of one element that holds no bag to `cells` and its
  /// shape to `shape`: 'U' for an atom, '[' fields ']' for a tuple. False
  /// on a bag or a syntax error.
  bool ParseFlatElement(std::vector<AtomId>* cells, std::string* shape) {
    switch (Peek().kind) {
      case TokenKind::kIdent:
      case TokenKind::kNumber:
        cells->push_back(table_->Intern(Next().text));
        shape->push_back('U');
        return true;
      case TokenKind::kLBracket:
        Next();
        shape->push_back('[');
        if (!Accept(TokenKind::kRBracket)) {
          while (true) {
            if (!ParseFlatElement(cells, shape)) return false;
            if (Accept(TokenKind::kRBracket)) break;
            if (!Accept(TokenKind::kComma)) return false;
          }
        }
        shape->push_back(']');
        return true;
      default:
        return false;
    }
  }

  /// The type of an element of shape `shape` (as ParseFlatElement writes
  /// it) from shape[*at].
  static Type ShapeType(std::string_view shape, size_t* at) {
    if (shape[(*at)++] == 'U') return Type::Atom();
    std::vector<Type> fields;
    while (shape[*at] != ']') fields.push_back(ShapeType(shape, at));
    ++*at;
    return Type::Tuple(std::move(fields));
  }

  // ---------------------------------------------------------------- types

  Result<Type> ParseType() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kIdent && t.text == "U") {
      Next();
      return Type::Atom();
    }
    if (t.kind == TokenKind::kUnderscore) {
      Next();
      return Type::Bottom();
    }
    if (t.kind == TokenKind::kLBracket) {
      Next();
      std::vector<Type> fields;
      if (!Accept(TokenKind::kRBracket)) {
        while (true) {
          BAGALG_ASSIGN_OR_RETURN(Type f, ParseType());
          fields.push_back(std::move(f));
          if (Accept(TokenKind::kRBracket)) break;
          BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        }
      }
      return Type::Tuple(std::move(fields));
    }
    if (t.kind == TokenKind::kLBagBrace) {
      Next();
      BAGALG_ASSIGN_OR_RETURN(Type elem, ParseType());
      BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRBagBrace));
      return Type::Bag(std::move(elem));
    }
    return Status::ParseError("expected a type at offset " +
                              std::to_string(t.offset));
  }

  // ---------------------------------------------------------- expressions

  Result<Expr> ParseExpr() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kQuote) {
      Next();
      BAGALG_ASSIGN_OR_RETURN(Value v, ParseValue());
      return ConstExpr(std::move(v));
    }
    if (t.kind != TokenKind::kIdent) {
      return Status::ParseError("expected an expression at offset " +
                                std::to_string(t.offset) + ", found " +
                                TokenKindName(t.kind));
    }
    const Token& name = Next();
    auto kw = KeywordMap().find(name.text);
    if (kw != KeywordMap().end() && Peek().kind == TokenKind::kLParen) {
      return ParseOperator(kw->second, name);
    }
    // A bound variable, innermost binding wins; otherwise an input bag.
    for (size_t i = vars_.size(); i-- > 0;) {
      if (vars_[i] == name.text) {
        return Var(vars_.size() - 1 - i);
      }
    }
    if (kw != KeywordMap().end()) {
      return ReservedWordError(name, "name an input bag");
    }
    return Input(std::string(name.text));
  }

 private:
  Result<size_t> ParseAttrNumber() {
    if (Peek().kind != TokenKind::kNumber) {
      return Status::ParseError("expected an attribute number at offset " +
                                std::to_string(Peek().offset));
    }
    const Token& tok = Next();
    BAGALG_ASSIGN_OR_RETURN(BigNat n, BigNat::FromDecimal(tok.text));
    BAGALG_ASSIGN_OR_RETURN(uint64_t v, n.ToUint64());
    if (v == 0) {
      return Status::ParseError("attribute numbers are 1-based (offset " +
                                std::to_string(tok.offset) + ")");
    }
    return static_cast<size_t>(v);
  }

  Result<std::string> ParseBinderName() {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::ParseError("expected a variable name at offset " +
                                std::to_string(Peek().offset));
    }
    const Token& tok = Next();
    if (KeywordMap().count(tok.text) != 0) {
      return ReservedWordError(tok, "be a variable");
    }
    BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kArrow));
    return std::string(tok.text);
  }

  Result<Expr> ParseOperator(ExprKind kind, const Token& name) {
    BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    switch (kind) {
      case ExprKind::kAdditiveUnion:
      case ExprKind::kSubtract:
      case ExprKind::kMaxUnion:
      case ExprKind::kIntersect:
      case ExprKind::kProduct: {
        BAGALG_ASSIGN_OR_RETURN(Expr a, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr b, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        switch (kind) {
          case ExprKind::kAdditiveUnion:
            return Uplus(std::move(a), std::move(b));
          case ExprKind::kSubtract:
            return Monus(std::move(a), std::move(b));
          case ExprKind::kMaxUnion:
            return Umax(std::move(a), std::move(b));
          case ExprKind::kIntersect:
            return Inter(std::move(a), std::move(b));
          default:
            return Product(std::move(a), std::move(b));
        }
      }
      case ExprKind::kTupling: {
        std::vector<Expr> fields;
        if (!Accept(TokenKind::kRParen)) {
          while (true) {
            BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr());
            fields.push_back(std::move(e));
            if (Accept(TokenKind::kRParen)) break;
            BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
          }
        }
        return Tup(std::move(fields));
      }
      case ExprKind::kBagging:
      case ExprKind::kPowerset:
      case ExprKind::kPowerbag:
      case ExprKind::kBagDestroy:
      case ExprKind::kDupElim: {
        BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        switch (kind) {
          case ExprKind::kBagging:
            return Beta(std::move(e));
          case ExprKind::kPowerset:
            return Pow(std::move(e));
          case ExprKind::kPowerbag:
            return Powbag(std::move(e));
          case ExprKind::kBagDestroy:
            return Destroy(std::move(e));
          default:
            return Eps(std::move(e));
        }
      }
      case ExprKind::kAttrProj: {
        BAGALG_ASSIGN_OR_RETURN(size_t attr, ParseAttrNumber());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return Proj(std::move(e), attr);
      }
      case ExprKind::kMap: {
        BAGALG_ASSIGN_OR_RETURN(std::string var, ParseBinderName());
        vars_.push_back(var);
        auto body = ParseExpr();
        vars_.pop_back();
        BAGALG_RETURN_IF_ERROR(body.status());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr src, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return Map(std::move(body).value(), std::move(src));
      }
      case ExprKind::kSelect: {
        BAGALG_ASSIGN_OR_RETURN(std::string var, ParseBinderName());
        vars_.push_back(var);
        auto lhs = ParseExpr();
        if (!lhs.ok()) {
          vars_.pop_back();
          return lhs.status();
        }
        Status eq = Expect(TokenKind::kEqEq);
        if (!eq.ok()) {
          vars_.pop_back();
          return eq;
        }
        auto rhs = ParseExpr();
        vars_.pop_back();
        BAGALG_RETURN_IF_ERROR(rhs.status());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr src, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return Select(std::move(lhs).value(), std::move(rhs).value(),
                      std::move(src));
      }
      case ExprKind::kNest:
      case ExprKind::kUnnest: {
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
        std::vector<size_t> attrs;
        if (!Accept(TokenKind::kRBracket)) {
          while (true) {
            BAGALG_ASSIGN_OR_RETURN(size_t a, ParseAttrNumber());
            attrs.push_back(a);
            if (Accept(TokenKind::kRBracket)) break;
            BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
          }
        }
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        if (kind == ExprKind::kNest) {
          return NestExpr(std::move(e), std::move(attrs));
        }
        if (attrs.size() != 1) {
          return Status::ParseError(
              "unnest takes exactly one attribute (offset " +
              std::to_string(name.offset) + ")");
        }
        return UnnestExpr(std::move(e), attrs[0]);
      }
      case ExprKind::kIfp:
      case ExprKind::kBoundedIfp: {
        BAGALG_ASSIGN_OR_RETURN(std::string var, ParseBinderName());
        vars_.push_back(var);
        auto body = ParseExpr();
        vars_.pop_back();
        BAGALG_RETURN_IF_ERROR(body.status());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr seed, ParseExpr());
        if (kind == ExprKind::kIfp) {
          BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          return Ifp(std::move(body).value(), std::move(seed));
        }
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        BAGALG_ASSIGN_OR_RETURN(Expr bound, ParseExpr());
        BAGALG_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return BoundedIfp(std::move(body).value(), std::move(seed),
                          std::move(bound));
      }
      default:
        return Status::Internal("unhandled operator keyword");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  AtomTable* table_;
  std::vector<std::string> vars_;
};

}  // namespace

bool IsReservedWord(std::string_view name) {
  return KeywordMap().count(name) != 0;
}

Result<Value> ParseValue(std::string_view text, AtomTable* table) {
  BAGALG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), table);
  BAGALG_ASSIGN_OR_RETURN(Value v, parser.ParseValue());
  BAGALG_RETURN_IF_ERROR(parser.AtEnd());
  return v;
}

Result<Type> ParseType(std::string_view text) {
  BAGALG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), nullptr);
  BAGALG_ASSIGN_OR_RETURN(Type t, parser.ParseType());
  BAGALG_RETURN_IF_ERROR(parser.AtEnd());
  return t;
}

Result<Expr> ParseExpr(std::string_view text, AtomTable* table) {
  BAGALG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), table);
  BAGALG_ASSIGN_OR_RETURN(Expr e, parser.ParseExpr());
  BAGALG_RETURN_IF_ERROR(parser.AtEnd());
  return e;
}

}  // namespace bagalg::lang
