// Tests for the surface-syntax lexer, parser, printer round-trips, and the
// script runner.

#include "src/lang/parser.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/algebra/rewrite.h"
#include "src/lang/lexer.h"
#include "src/lang/script.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

using lang::ParseExpr;
using lang::ParseType;
using lang::ParseValue;
using lang::ScriptRunner;
using lang::Tokenize;

Value A(const char* name) { return MakeAtom(name); }

TEST(LexerTest, TokenizesAllTokenKinds) {
  auto toks = Tokenize("foo 42 ( ) [ ] {{ }} , -> == = * ' : _");
  ASSERT_TRUE(toks.ok());
  std::vector<lang::TokenKind> kinds;
  for (const auto& t : *toks) kinds.push_back(t.kind);
  using K = lang::TokenKind;
  std::vector<K> expected = {K::kIdent,  K::kNumber,     K::kLParen,
                             K::kRParen, K::kLBracket,   K::kRBracket,
                             K::kLBagBrace, K::kRBagBrace, K::kComma,
                             K::kArrow,  K::kEqEq,       K::kEq,
                             K::kStar,   K::kQuote,      K::kColon,
                             K::kUnderscore, K::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, CommentsSkippedAndErrorsReported) {
  auto toks = Tokenize("a # everything here is ignored {{\nb");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks->size(), 3u);  // a, b, end
  EXPECT_FALSE(Tokenize("{x").ok());
  EXPECT_FALSE(Tokenize("a - b").ok());
  EXPECT_FALSE(Tokenize("?").ok());
}

TEST(ParseValueTest, AtomsTuplesBags) {
  auto v1 = ParseValue("a");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, A("a"));
  auto v2 = ParseValue("[a, b]");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, MakeTuple({A("a"), A("b")}));
  auto v3 = ParseValue("{{[a, b]*3, [b, a]}}");
  ASSERT_TRUE(v3.ok());
  ASSERT_TRUE(v3->IsBag());
  EXPECT_EQ(v3->bag().CountOf(MakeTuple({A("a"), A("b")})), Mult(3));
  EXPECT_EQ(v3->bag().CountOf(MakeTuple({A("b"), A("a")})), Mult(1));
}

TEST(ParseValueTest, EmptyContainersAndBigCounts) {
  auto v1 = ParseValue("{{}}");
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->bag().empty());
  auto v2 = ParseValue("[]");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->fields().size(), 0u);
  auto v3 = ParseValue("{{a*340282366920938463463374607431768211456}}");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->bag().TotalCount(), BigNat::TwoPow(128));
}

TEST(ParseValueTest, ValueRoundTripsThroughToString) {
  const char* cases[] = {
      "a",
      "[a, b]",
      "{{a*3, b}}",
      "{{[a, {{b*2}}], [c, {{}}]}}",
      "{{{{a}}*5, {{b, c}}}}",
  };
  for (const char* text : cases) {
    auto v = ParseValue(text);
    ASSERT_TRUE(v.ok()) << text;
    auto back = ParseValue(v->ToString());
    ASSERT_TRUE(back.ok()) << v->ToString();
    EXPECT_EQ(*v, *back) << text;
  }
}

TEST(ParseValueTest, Errors) {
  // Exact messages: a malformed bag literal reports what it reported when
  // every literal was parsed into Values. Type errors name the types in
  // value order, and a lexical error anywhere wins over a syntax error.
  const std::pair<const char*, const char*> cases[] = {
      {"", "expected a value at offset 0, found end of input"},
      {"[a", "expected ',' but found end of input at offset 2"},
      {"a b", "trailing input at offset 2"},
      {"{{a, [b]}}", "incompatible types U and [U]"},
      {"{{[b], a}}", "incompatible types U and [U]"},
      {"{{[a, b], [c]}}", "tuple arity mismatch: [U, U] vs [U]"},
      {"{{a, {{b}}}}", "incompatible types U and {{U}}"},
      {"{{[a", "expected ',' but found end of input at offset 4"},
      {"{{a*}}", "expected a multiplicity after '*' at offset 4"},
      {"{{a b}}", "expected ',' but found identifier at offset 4"},
      {"{{a, b ?}}", "unexpected character '?' at offset 7"},
      {"{{a, # b}}", "expected a value at offset 10, found end of input"},
  };
  for (const auto& [text, message] : cases) {
    auto v = ParseValue(text);
    ASSERT_FALSE(v.ok()) << text;
    EXPECT_EQ(v.status().message(), message) << text;
  }
}

// ------------------------------------------- bag literals of flat rows

/// A random value of one of the flat shapes a literal may hold: an atom,
/// tuples of arity 0-3, and tuples nesting tuples.
Value RandomFlatElement(Rng& rng, int shape) {
  auto atom = [&] {
    std::string name = "e";
    name += std::to_string(rng.Below(6));
    return MakeAtom(name);
  };
  switch (shape) {
    case 0:
      return atom();
    case 1:
      return MakeTuple({});
    case 2:
      return MakeTuple({atom()});
    case 3:
      return MakeTuple({atom(), atom()});
    case 4:
      return MakeTuple({atom(), atom(), atom()});
    case 5:
      return MakeTuple({atom(), MakeTuple({atom(), atom()})});
    default:
      return MakeTuple({MakeTuple({atom(), MakeTuple({})}), atom()});
  }
}

TEST(ParseValueTest, FlatLiteralsRoundTripIntoTheBuildersRows) {
  const Mult counts[] = {Mult(1), Mult(2), Mult(7), Mult(~uint64_t{0}),
                         BigNat::TwoPow(64), BigNat::TwoPow(100)};
  Rng rng(27);
  for (int shape = 0; shape < 7; ++shape) {
    for (int trial = 0; trial < 20; ++trial) {
      // Random additions, repeats included, written out unmerged: the
      // parser must merge them as Bag::Builder does.
      Bag::Builder builder;
      std::string text = "{{";
      const uint64_t n = rng.Below(12);
      for (uint64_t i = 0; i < n; ++i) {
        Value v = RandomFlatElement(rng, shape);
        const Mult& c = counts[rng.Below(std::size(counts))];
        if (i != 0) text += ", ";
        text += v.ToString() + "*" + c.ToString();
        builder.Add(std::move(v), c);
      }
      text += "}}";
      auto built = std::move(builder).Build();
      ASSERT_TRUE(built.ok()) << built.status();
      const Value want = Value::FromBag(*std::move(built));
      for (const std::string& literal : {text, want.ToString()}) {
        auto got = ParseValue(literal);
        ASSERT_TRUE(got.ok()) << literal << ": " << got.status();
        ASSERT_TRUE(got->IsBag()) << literal;
        EXPECT_EQ(*got, want) << literal;
        EXPECT_EQ(got->Hash(), want.Hash()) << literal;
        EXPECT_EQ(got->type(), want.type()) << literal;
        const FlatRows* rows = got->bag().flat_rows();
        const FlatRows* want_rows = want.bag().flat_rows();
        ASSERT_NE(rows, nullptr) << literal;
        ASSERT_NE(want_rows, nullptr) << literal;
        EXPECT_EQ(rows->width, want_rows->width) << literal;
        EXPECT_EQ(rows->cells, want_rows->cells) << literal;
        EXPECT_EQ(rows->counts, want_rows->counts) << literal;
      }
    }
  }
}

TEST(ParseValueTest, ZeroCountElementsAreDroppedBeforeTheShapeCheck) {
  auto v1 = ParseValue("{{a*0}}");
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_TRUE(v1->bag().empty());
  EXPECT_EQ(v1->type().ToString(), "{{_}}");
  auto v2 = ParseValue("{{a*0, [b]}}");
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(v2->type().ToString(), "{{[U]}}");
  EXPECT_EQ(v2->ToString(), "{{[b]}}");
  auto v3 = ParseValue("{{[a]*000, b*2, {{c}}*0}}");
  ASSERT_TRUE(v3.ok()) << v3.status();
  EXPECT_EQ(v3->ToString(), "{{b*2}}");
  EXPECT_EQ(v3->type().ToString(), "{{U}}");
}

TEST(ParseValueTest, BagsOfBagsParseThroughValues) {
  auto v = ParseValue("{{{{a}}*5, {{b, c}}, {{}}, {{a}}}}");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->type().ToString(), "{{{{U}}}}");
  EXPECT_EQ(v->bag().flat_rows(), nullptr);
  EXPECT_EQ(v->bag().CountOf(Value::FromBag(MakeBagOf({A("a")}))), Mult(6));
  EXPECT_EQ(v->ToString(), "{{{{}}, {{a}}*6, {{b, c}}}}");
  auto w = ParseValue("{{[a, {{b*2}}], [c, {{}}]}}");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->type().ToString(), "{{[U, {{U}}]}}");
}

TEST(ParseTypeTest, AllConstructors) {
  auto t1 = ParseType("U");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, Type::Atom());
  auto t2 = ParseType("[U, {{U}}]");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, Type::Tuple({Type::Atom(), Type::Bag(Type::Atom())}));
  auto t3 = ParseType("{{[U, U]}}");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->BagNesting(), 1);
  auto t4 = ParseType("_");
  ASSERT_TRUE(t4.ok());
  EXPECT_TRUE(t4->IsBottom());
  EXPECT_FALSE(ParseType("V").ok());
  EXPECT_FALSE(ParseType("{{U").ok());
}

TEST(ParseExprTest, OperatorsAndVariables) {
  auto e = ParseExpr("map(x -> proj(1, x), sel(y -> proj(1, y) == proj(2, y), B))");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kMap);
  // Variable resolution: x and y are separate binders, both depth 0 in
  // their own scopes.
  const Expr& body = (*e)->children[0];
  EXPECT_EQ(body->kind, ExprKind::kAttrProj);
  EXPECT_EQ(body->children[0]->kind, ExprKind::kVar);
  EXPECT_EQ(body->children[0]->index, 0u);
}

TEST(ParseExprTest, NestedBindersResolveByDepth) {
  auto e = ParseExpr("map(x -> map(y -> tup(x, y), B), C)");
  ASSERT_TRUE(e.ok());
  const Expr& inner_body = (*e)->children[0]->children[0];
  ASSERT_EQ(inner_body->kind, ExprKind::kTupling);
  EXPECT_EQ(inner_body->children[0]->index, 1u);  // x from outer scope
  EXPECT_EQ(inner_body->children[1]->index, 0u);  // y innermost
}

TEST(ParseExprTest, ShadowingInnermostWins) {
  auto e = ParseExpr("map(x -> map(x -> x, B), C)");
  ASSERT_TRUE(e.ok());
  const Expr& inner_body = (*e)->children[0]->children[0];
  EXPECT_EQ(inner_body->kind, ExprKind::kVar);
  EXPECT_EQ(inner_body->index, 0u);
}

TEST(ParseExprTest, LiteralsAndReservedWords) {
  auto e = ParseExpr("uplus(B, '{{[a]*2}})");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->children[1]->kind, ExprKind::kConst);
  EXPECT_FALSE(ParseExpr("uplus(map, B)").ok());  // reserved word as input
  EXPECT_FALSE(ParseExpr("map(pow -> pow, B)").ok());
}

TEST(ParseExprTest, FixpointForms) {
  auto e = ParseExpr("ifp(X -> umax(X, X), G)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kIfp);
  auto b = ParseExpr("bifp(X -> X, G, dedup(G))");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->kind, ExprKind::kBoundedIfp);
  EXPECT_EQ((*b)->children.size(), 3u);
}

TEST(ParseExprTest, NestUnnestAttributeLists) {
  auto e = ParseExpr("nest([2, 3], B)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->attrs, (std::vector<size_t>{2, 3}));
  auto u = ParseExpr("unnest([2], B)");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->attrs, (std::vector<size_t>{2}));
  EXPECT_FALSE(ParseExpr("unnest([1, 2], B)").ok());
  EXPECT_FALSE(ParseExpr("proj(0, B)").ok());  // attrs are 1-based
}

TEST(ParseExprTest, ExpressionRoundTripsThroughToString) {
  // Build a representative zoo with the C++ API, print, re-parse, and
  // compare structurally.
  Value unit = A("u");
  std::vector<Expr> zoo = {
      Input("B"),
      CardGreater(Input("R"), Input("S")),
      EvenCardinalityWithOrder(Input("R"), Input("Leq"), unit),
      TransitiveClosure(Input("G")),
      TransitiveClosureBounded(Input("G")),
      AverageAgg(Input("B"), unit),
      MonusViaPowerset(Input("A"), Input("B")),
      EpsViaPowerset(Input("B")),
      NestExpr(Input("B"), {1, 2}),
      Powbag(UnnestExpr(NestExpr(Input("B"), {2}), 2)),
  };
  for (const Expr& e : zoo) {
    std::string text = e.ToString();
    auto parsed = ParseExpr(text);
    ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status();
    EXPECT_TRUE(ExprEquals(e, *parsed)) << text;
  }
}

// ---------------------------------------------------------- script runner

TEST(ScriptTest, LetEvalCountFlow) {
  ScriptRunner runner;
  auto r1 = runner.RunLine("let B = {{[a, b]*4, [b, a]*3}}");
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r2 = runner.RunLine(
      "count map(x -> tup(proj(1, x), proj(4, x)),"
      " sel(x -> proj(2, x) == proj(3, x), prod(B, B)))");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r2, "24");  // 2nm with n=4, m=3
}

TEST(ScriptTest, FlatLetBuildsNoEntriesView) {
  auto* walks = obs::GlobalMetrics().GetCounter("kernel.value_walks");
  ScriptRunner runner;
  const uint64_t before = walks->value();
  auto r = runner.RunLine("let W = {{[a, b]*3, [b, c], [a, b], [c, a]*0}}");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "W : {{[U, U]}}");
  EXPECT_EQ(walks->value(), before);
}

TEST(ScriptTest, SchemaAndTypeCommands) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("schema G : {{[U, U]}}").ok());
  auto t = runner.RunLine("type map(x -> proj(1, x), G)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, "{{U}}");
  auto a = runner.RunLine("analyze pow(G)");
  ASSERT_TRUE(a.ok());
  EXPECT_NE(a->find("BALG^2"), std::string::npos);
  EXPECT_NE(a->find("power_nesting=1"), std::string::npos);
}

TEST(ScriptTest, OptimizeCommand) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("schema B : {{[U]}}").ok());
  auto r = runner.RunLine("optimize dedup(dedup(B))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "dedup(B)");
}

TEST(ScriptTest, ErrorsCarryLineNumbers) {
  ScriptRunner runner;
  std::ostringstream out;
  Status st = runner.RunScript("let B = {{a}}\neval flat(B)\n", out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(ScriptTest, FullScriptProducesOutput) {
  ScriptRunner runner;
  std::ostringstream out;
  Status st = runner.RunScript(
      "# Example 4.1\n"
      "let G = {{[u1, c], [u2, c], [c, w1]}}\n"
      "eval monus(map(x -> tup(proj(2, x)), sel(x -> proj(2, x) == 'c, G)),"
      " map(x -> tup(proj(1, x)), sel(x -> proj(1, x) == 'c, G)))\n",
      out);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_NE(out.str().find("{{[c]}}"), std::string::npos);
}

TEST(ScriptTest, DumpRoundTripsTheDatabase) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{[a, b]*3}}").ok());
  ASSERT_TRUE(runner.RunLine("let C = {{x, y*2}}").ok());
  auto dump = runner.RunLine("dump");
  ASSERT_TRUE(dump.ok());
  // Replaying the dump in a fresh runner reproduces the instances.
  ScriptRunner replay;
  std::ostringstream out;
  ASSERT_TRUE(replay.RunScript(*dump + "\n", out).ok());
  EXPECT_EQ(replay.database().instances(), runner.database().instances());
}

TEST(ScriptTest, ResetClearsState) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{a}}").ok());
  ASSERT_TRUE(runner.RunLine("reset").ok());
  auto r = runner.RunLine("eval B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ScriptTest, CountOfANonBagIsAnError) {
  ScriptRunner runner;
  auto r = runner.RunLine("count 'a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "count requires a bag result");
  EXPECT_STREQ(runner.last_outcome(), "error");
  // The journal agrees with the returned status.
  const auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, "error");
  EXPECT_FALSE(runner.last_result().has_value());
}

TEST(ScriptTest, NonResultCommandsClearTheLastResult) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{a, b}}").ok());
  EXPECT_FALSE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("eval B").ok());
  ASSERT_TRUE(runner.last_result().has_value());
  // A let after an eval answers with its own output only.
  ASSERT_TRUE(runner.RunLine("let C = {{c}}").ok());
  EXPECT_FALSE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("exec C").ok());
  ASSERT_TRUE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("type C").ok());
  EXPECT_FALSE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("count C").ok());
  // A statement that fails to parse leaves no result behind either.
  EXPECT_FALSE(runner.RunLine("eval uplus(").ok());
  EXPECT_FALSE(runner.last_result().has_value());
}

TEST(ScriptTest, EveryLineRecordsItsOutcome) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{a, b}}").ok());
  EXPECT_STREQ(runner.last_outcome(), "ok");
  EXPECT_FALSE(runner.RunLine("eval nosuch").ok());
  EXPECT_STREQ(runner.last_outcome(), "error");
  EXPECT_FALSE(runner.RunLine("frobnicate").ok());  // never journaled
  EXPECT_STREQ(runner.last_outcome(), "error");
  ASSERT_TRUE(runner.RunLine("\\budget 1").ok());
  EXPECT_FALSE(runner.RunLine("exec uplus(B, B)").ok());
  EXPECT_STREQ(runner.last_outcome(), "budget-refused");
  ASSERT_TRUE(runner.RunLine("\\budget off").ok());
  ASSERT_TRUE(runner.RunLine("count B").ok());
  EXPECT_STREQ(runner.last_outcome(), "ok");
  // eval, count and exec journal through one bracket, tagged by engine.
  const auto tail = runner.journal().Tail(4);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].kind, "eval");
  EXPECT_EQ(tail[1].kind, "exec");
  EXPECT_EQ(tail[1].engine, "ir");
  EXPECT_EQ(tail[1].outcome, "budget-refused");
  EXPECT_EQ(tail[2].kind, "count");
  EXPECT_EQ(tail[2].engine, "eval");
}

}  // namespace
}  // namespace bagalg
