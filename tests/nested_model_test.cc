// The evaluator against the nesting-2 reference model (nested_model.h):
// nest, unnest, δ, P, P_b, ε, and ⊎/∸/∪/∩, membership and ⊑ over bags
// of flat bags, with counts past 2^64.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/algebra/builder.h"
#include "src/algebra/eval.h"
#include "tests/nested_model.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }
Value T(std::initializer_list<Value> fields) { return MakeTuple(fields); }

BigNat Big(uint64_t exp, uint64_t plus = 0) {
  return BigNat::TwoPow(exp) + BigNat(plus);
}

Bag Build(std::vector<std::pair<Value, BigNat>> items) {
  Bag::Builder builder;
  for (auto& [v, c] : items) builder.Add(std::move(v), std::move(c));
  auto bag = std::move(builder).Build();
  EXPECT_TRUE(bag.ok()) << bag.status();
  return *bag;
}

Value Inner(std::vector<std::pair<Value, BigNat>> items) {
  return Value::FromBag(Build(std::move(items)));
}

Database Nesting2Db() {
  Database db;
  // Flat operands of P and P_b (24 subbags), and of ⊑.
  EXPECT_TRUE(db.Put("A", Build({{T({A("a")}), BigNat(2)},
                                 {T({A("b")}), BigNat(1)},
                                 {T({A("c")}), BigNat(3)}}))
                  .ok());
  EXPECT_TRUE(db.Put("C", Build({{T({A("a")}), BigNat(1)},
                                 {T({A("b")}), BigNat(1)},
                                 {T({A("c")}), BigNat(2)}}))
                  .ok());
  // Bags of flat bags, the empty one included, counts past 2^64.
  EXPECT_TRUE(
      db.Put("Q", Build({{Inner({{T({A("a")}), BigNat(1)}}), Big(70)},
                         {Inner({{T({A("a")}), BigNat(1)},
                                 {T({A("b")}), BigNat(2)}}),
                          BigNat(3)},
                         {Inner({}), BigNat(1)},
                         {Inner({{T({A("c")}), Big(64, 1)}}), Big(64, 1)}}))
          .ok());
  EXPECT_TRUE(
      db.Put("Q2", Build({{Inner({{T({A("a")}), BigNat(1)}}), BigNat(5)},
                          {Inner({{T({A("a")}), BigNat(1)},
                                  {T({A("b")}), BigNat(2)}}),
                           Big(70)},
                          {Inner({{T({A("b")}), BigNat(1)}}), BigNat(2)}}))
          .ok());
  // Flat tuples to nest, counts past 2^64.
  EXPECT_TRUE(db.Put("R", Build({{T({A("a"), A("x")}), Big(65, 1)},
                                 {T({A("a"), A("y")}), BigNat(3)},
                                 {T({A("b"), A("x")}), Big(100)},
                                 {T({A("c"), A("z")}), BigNat(1)}}))
                  .ok());
  EXPECT_TRUE(
      db.Put("R3", Build({{T({A("a"), A("x"), A("p")}), BigNat(2)},
                          {T({A("a"), A("x"), A("q")}), BigNat(1)},
                          {T({A("a"), A("y"), A("p")}), Big(66)},
                          {T({A("b"), A("x"), A("p")}), BigNat(1)}}))
          .ok());
  return db;
}

std::vector<Expr> Nesting2Corpus() {
  const Expr Q = Input("Q");
  const Expr Q2 = Input("Q2");
  const Expr P = Pow(Input("A"));
  const Expr Pb = Powbag(Input("A"));
  // σ bodies over Var(0), an element of a bag of flat bags.
  const Expr member = Inter(Beta(Var(0)), Eps(Input("Q")));
  const Expr none = Monus(Beta(Var(0)), Beta(Var(0)));
  return {
      Q,
      Uplus(Q, Q2),
      Monus(Q, Q2),
      Monus(Q2, Q),
      Umax(Q, Q2),
      Inter(Q, Q2),
      Monus(Q, Q),
      Eps(Q),
      Destroy(Q),
      Destroy(Uplus(Q, Q2)),
      P,
      Pb,
      Pow(Eps(Input("A"))),
      Destroy(Pb),
      Eps(Pb),
      Inter(P, Q),
      Monus(Pb, Q),
      Uplus(Pb, Q2),
      Umax(P, Q2),
      NestExpr(Input("R"), {2}),
      NestExpr(Input("R"), {1}),
      NestExpr(Input("R"), {}),
      NestExpr(Input("R"), {1, 2}),
      NestExpr(Input("R3"), {2, 3}),
      NestExpr(Input("R3"), {1, 3}),
      NestExpr(Input("R3"), {3}),
      UnnestExpr(NestExpr(Input("R"), {2}), 2),
      UnnestExpr(NestExpr(Input("R3"), {1, 3}), 2),
      UnnestExpr(NestExpr(Input("R3"), {3}), 3),
      Uplus(NestExpr(Input("R"), {2}), NestExpr(Input("R"), {2})),
      Monus(NestExpr(Input("R3"), {3}), NestExpr(Input("R3"), {2})),
      Eps(NestExpr(Input("R"), {1})),
      // Membership in Q, and its negation.
      Select(member, Beta(Var(0)), P),
      Select(member, none, P),
      Destroy(Select(member, Beta(Var(0)), Pb)),
      // ⊑ C.
      Select(Inter(Var(0), Input("C")), Var(0), Pb),
      Select(Inter(Var(0), Input("C")), Var(0), Uplus(Q, Q2)),
  };
}

TEST(NestedModelTest, EvalAgreesWithTheModelOnTheNesting2Corpus) {
  const Database db = Nesting2Db();
  for (const Expr& q : Nesting2Corpus()) {
    auto want = nested_model::Eval(q, db);
    ASSERT_TRUE(want.ok()) << q.ToString() << "\n" << want.status();
    Evaluator eval;
    auto got = eval.EvalToBag(q, db);
    ASSERT_TRUE(got.ok()) << q.ToString() << "\n" << got.status();
    EXPECT_EQ(nested_model::Diff(*got, *want), "") << q.ToString();
  }
}

/// The model itself on a few bags small enough to check by hand.
TEST(NestedModelTest, ModelCountsByHand) {
  const Database db = Nesting2Db();
  // |P(A)| = 3 · 2 · 4 distinct subbags; P_b(A) counts 2^|A| = 2^6.
  auto p = nested_model::Eval(Pow(Input("A")), db);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->counts.size(), 24u);
  auto pb = nested_model::Eval(Powbag(Input("A")), db);
  ASSERT_TRUE(pb.ok());
  BigNat total;
  for (const auto& [el, c] : pb->counts) total += c;
  EXPECT_EQ(total, BigNat(64));
  // δ(Q): a gets 2^70 + 3, b gets 6, c gets (2^64 + 1)^2.
  auto d = nested_model::Eval(Destroy(Input("Q")), db);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->flat.counts.size(), 3u);
  const auto row = [](const char* name) {
    return nested_model::Cells{A(name).atom_id()};
  };
  EXPECT_EQ(d->flat.counts.at(row("a")), Big(70, 3));
  EXPECT_EQ(d->flat.counts.at(row("b")), BigNat(6));
  EXPECT_EQ(d->flat.counts.at(row("c")), Big(64, 1) * Big(64, 1));
}

/// Diff reports wrong counts, a wrong grouping and missing subbags, and
/// takes two empty bags as equal.
TEST(NestedModelTest, DiffSeesADifferentBag) {
  const Database db = Nesting2Db();
  Evaluator eval;
  const auto diff = [&](const Expr& run, const Expr& modeled) {
    auto got = eval.EvalToBag(run, db);
    auto want = nested_model::Eval(modeled, db);
    EXPECT_TRUE(got.ok() && want.ok());
    return nested_model::Diff(*got, *want);
  };
  EXPECT_NE(diff(Input("Q"), Eps(Input("Q"))), "");
  EXPECT_NE(diff(NestExpr(Input("R"), {2}), NestExpr(Input("R"), {1})), "");
  EXPECT_NE(diff(Pow(Input("A")), Pow(Input("C"))), "");
  EXPECT_EQ(
      diff(Monus(Input("Q"), Input("Q")), Monus(Input("Q2"), Input("Q2"))),
      "");
}

}  // namespace
}  // namespace bagalg
