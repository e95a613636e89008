// Tests for the BALG evaluator: operator dispatch, lambda binding, the §4
// occurrence-counting table, Example 4.1, fixpoints, statistics, and
// resource-limit failure paths.

#include "src/algebra/eval.h"

#include <gtest/gtest.h>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }

Database Db(std::initializer_list<std::pair<std::string, Bag>> items) {
  Database db;
  for (const auto& [name, bag] : items) {
    Status st = db.Put(name, bag);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

Bag EvalBag(const Expr& e, const Database& db,
            Limits limits = Limits::Default()) {
  Evaluator eval(limits);
  auto r = eval.EvalToBag(e, db);
  EXPECT_TRUE(r.ok()) << r.status() << " for " << e.ToString();
  return r.ok() ? std::move(r).value() : Bag();
}

TEST(EvalTest, InputLookup) {
  Bag b = MakeBag({{A("x"), 2}});
  Database db = Db({{"B", b}});
  EXPECT_EQ(EvalBag(Input("B"), db), b);
  Evaluator eval;
  auto missing = eval.EvalToBag(Input("Z"), db);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(EvalTest, ConstAndTuplingAndBagging) {
  Database db;
  Expr e = Beta(Tup({ConstExpr(A("p")), ConstExpr(A("q"))}));
  Bag r = EvalBag(e, db);
  EXPECT_EQ(r, MakeBagOf({MakeTuple({A("p"), A("q")})}));
}

TEST(EvalTest, MapBindsVariable) {
  Bag b = MakeBag({{MakeTuple({A("x"), A("y")}), 3}});
  Database db = Db({{"B", b}});
  // MAP λt.[α2(t), α1(t)] — swap attributes.
  Expr e = Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("B"));
  Bag r = EvalBag(e, db);
  EXPECT_EQ(r.CountOf(MakeTuple({A("y"), A("x")})), Mult(3));
}

TEST(EvalTest, MapAddsImageMultiplicities) {
  // Image collisions add up (§3): MAP λx.k over {{a, a, b}} is {{k*3}}.
  Database db = Db({{"B", MakeBag({{A("a"), 2}, {A("b"), 1}})}});
  Bag r = EvalBag(Map(ConstExpr(A("k")), Input("B")), db);
  EXPECT_EQ(r, MakeBag({{A("k"), 3}}));
}

TEST(EvalTest, MapBetaExample) {
  // MAP β ({{a, a, b}}) = {{ {{a}}, {{a}}, {{b}} }} (§3 example).
  Database db = Db({{"B", MakeBag({{A("a"), 2}, {A("b"), 1}})}});
  Bag r = EvalBag(Map(Beta(Var(0)), Input("B")), db);
  EXPECT_EQ(r.TotalCount(), Mult(3));
  EXPECT_EQ(r.CountOf(Value::FromBag(MakeBagOf({A("a")}))), Mult(2));
  EXPECT_EQ(r.CountOf(Value::FromBag(MakeBagOf({A("b")}))), Mult(1));
}

TEST(EvalTest, NestedMapBindsBothDepths) {
  // MAP λx. MAP λy.[x.1, y.1] (B) over B itself: inner body sees both
  // binders (Var(1) is the outer x).
  Bag b = MakeBagOf(
      {MakeTuple({A("m")}), MakeTuple({A("n")})});
  Database db = Db({{"B", b}});
  Expr inner = Map(Tup({Proj(Var(1), 1), Proj(Var(0), 1)}),
                   ShiftVars(Input("B"), 0, 1));
  Expr e = Map(Beta(Var(0)), Map(inner, Input("B")));
  Bag r = EvalBag(e, db);
  // Outer map produced, per x, the bag {[x,m],[x,n]}; there are 2 of them.
  EXPECT_EQ(r.TotalCount(), Mult(2));
}

TEST(EvalTest, SelectionEqualityOfLambdaExpressions) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("a")}), 2},
                   {MakeTuple({A("a"), A("b")}), 5}});
  Database db = Db({{"B", b}});
  Expr e = Select(Proj(Var(0), 1), Proj(Var(0), 2), Input("B"));
  Bag r = EvalBag(e, db);
  EXPECT_EQ(r.TotalCount(), Mult(2));
}

TEST(EvalTest, SelectKeepsMultiplicities) {
  // σ keeps the multiplicity of every element it keeps.
  Bag b = MakeBag({{MakeTuple({A("a"), A("a")}), 3},
                   {MakeTuple({A("a"), A("b")}), 2}});
  Database db = Db({{"B", b}});
  Bag r = EvalBag(Select(Proj(Var(0), 1), Proj(Var(0), 2), Input("B")), db);
  EXPECT_EQ(r.TotalCount(), Mult(3));
  EXPECT_EQ(r.CountOf(MakeTuple({A("a"), A("a")})), Mult(3));
}

TEST(EvalTest, Section4OccurrenceTable) {
  // The worked table of §4: B holds n×[a,b] and m×[b,a];
  // Q(B) = π_{1,4}(σ_{2=3}(B×B)) yields nm×[a,a] and nm×[b,b].
  const uint64_t n = 4, m = 3;
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), n},
                   {MakeTuple({A("b"), A("a")}), m}});
  Database db = Db({{"B", b}});
  Expr prod = Product(Input("B"), Input("B"));
  Expr sel = Select(Proj(Var(0), 2), Proj(Var(0), 3), prod);

  // Intermediate check, also from the table: B×B has n² abab, m² baba,
  // nm baab, nm abba.
  Bag bxb = EvalBag(prod, db);
  EXPECT_EQ(bxb.CountOf(MakeTuple({A("a"), A("b"), A("a"), A("b")})),
            Mult(n * n));
  EXPECT_EQ(bxb.CountOf(MakeTuple({A("b"), A("a"), A("b"), A("a")})),
            Mult(m * m));
  EXPECT_EQ(bxb.CountOf(MakeTuple({A("b"), A("a"), A("a"), A("b")})),
            Mult(n * m));
  EXPECT_EQ(bxb.CountOf(MakeTuple({A("a"), A("b"), A("b"), A("a")})),
            Mult(n * m));

  Bag selected = EvalBag(sel, db);
  EXPECT_EQ(selected.TotalCount(), Mult(2 * n * m));

  Bag q = EvalBag(ProjectAttrs(sel, {1, 4}), db);
  EXPECT_EQ(q.CountOf(MakeTuple({A("a"), A("a")})), Mult(n * m));
  EXPECT_EQ(q.CountOf(MakeTuple({A("b"), A("b")})), Mult(n * m));
  EXPECT_FALSE(q.Contains(MakeTuple({A("a"), A("b")})));
  EXPECT_FALSE(q.Contains(MakeTuple({A("b"), A("a")})));
}

TEST(EvalTest, Example41InDegreeVsOutDegree) {
  // Star graph: edges u1->c, u2->c, c->w1. in(c)=2 > out(c)=1.
  Bag g = MakeBagOf({MakeTuple({A("u1"), A("c")}), MakeTuple({A("u2"), A("c")}),
                     MakeTuple({A("c"), A("w1")})});
  Database db = Db({{"G", g}});
  Expr q = InDegreeGreaterThanOut(Input("G"), A("c"));
  Bag r = EvalBag(q, db);
  EXPECT_FALSE(r.empty());
  // The surplus is exactly in-degree − out-degree copies of [c].
  EXPECT_EQ(r.CountOf(MakeTuple({A("c")})), Mult(1));

  // Balanced node: in == out -> empty.
  Expr q2 = InDegreeGreaterThanOut(Input("G"), A("u1"));
  EXPECT_TRUE(EvalBag(q2, db).empty());
}

TEST(EvalTest, PowersetThenDestroyInsideExpression) {
  Bag b = MakeBag({{A("a"), 2}});
  Database db = Db({{"B", b}});
  Bag r = EvalBag(Destroy(Pow(Input("B"))), db);
  // δ(P({{a,a}})) = {{a}} ⊎ {{a,a}} = a*3 (the m(m+1)^k/2 claim with
  // m=2, k=1).
  EXPECT_EQ(r.CountOf(A("a")), Mult(3));
}

TEST(EvalTest, AttrProjOnNonTupleFails) {
  Database db = Db({{"B", MakeBagOf({A("x")})}});
  Evaluator eval;
  auto r = eval.EvalToBag(Map(Proj(Var(0), 1), Input("B")), db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, UnboundVariableFails) {
  Database db;
  Evaluator eval;
  auto r = eval.Eval(Var(0), db);
  ASSERT_FALSE(r.ok());
}

TEST(EvalTest, StepBudgetExhaustion) {
  Bag b = MakeBag({{MakeTuple({A("x")}), 1}});
  Database db = Db({{"B", b}});
  Limits limits;
  limits.max_eval_steps = 3;
  Evaluator eval(limits);
  Expr big = Product(Product(Input("B"), Input("B")),
                     Product(Input("B"), Input("B")));
  auto r = eval.EvalToBag(big, db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, StatsCountOperators) {
  Bag b = MakeBag({{MakeTuple({A("x")}), 2}});
  Database db = Db({{"B", b}});
  Evaluator eval;
  auto r = eval.EvalToBag(Uplus(Input("B"), Eps(Input("B"))), db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(eval.stats().CountOf(ExprKind::kAdditiveUnion), 1u);
  EXPECT_EQ(eval.stats().CountOf(ExprKind::kDupElim), 1u);
  EXPECT_EQ(eval.stats().CountOf(ExprKind::kInput), 2u);
  EXPECT_GE(eval.stats().steps, 4u);
}

TEST(EvalTest, StatsTrackSizesWhenEnabled) {
  Bag b = MakeBag({{MakeTuple({A("x")}), 5}});
  Database db = Db({{"B", b}});
  Evaluator eval;
  eval.set_track_sizes(true);
  auto r = eval.EvalToBag(Product(Input("B"), Input("B")), db);
  ASSERT_TRUE(r.ok());
  // B×B: 25 occurrences of a 2-tuple of atoms (standard size 3 each) = 75.
  EXPECT_EQ(eval.stats().max_standard_size, BigNat(75));
}

TEST(EvalTest, IfpTransitiveClosure) {
  // Path graph 1->2->3->4 plus a cycle 5->6->5.
  Bag g = MakeBagOf({MakeTuple({A("n1"), A("n2")}), MakeTuple({A("n2"), A("n3")}),
                     MakeTuple({A("n3"), A("n4")}), MakeTuple({A("n5"), A("n6")}),
                     MakeTuple({A("n6"), A("n5")})});
  Database db = Db({{"G", g}});
  Bag tc = EvalBag(TransitiveClosure(Input("G")), db);
  EXPECT_TRUE(tc.Contains(MakeTuple({A("n1"), A("n4")})));
  EXPECT_TRUE(tc.Contains(MakeTuple({A("n1"), A("n3")})));
  EXPECT_TRUE(tc.Contains(MakeTuple({A("n5"), A("n5")})));
  EXPECT_TRUE(tc.Contains(MakeTuple({A("n6"), A("n6")})));
  EXPECT_FALSE(tc.Contains(MakeTuple({A("n4"), A("n1")})));
  EXPECT_FALSE(tc.Contains(MakeTuple({A("n1"), A("n5")})));
  EXPECT_TRUE(tc.IsSetLike());
  EXPECT_EQ(tc.TotalCount(), Mult(6 + 4));  // path pairs + cycle pairs
}

TEST(EvalTest, BoundedIfpTransitiveClosureAgrees) {
  Bag g = MakeBagOf({MakeTuple({A("n1"), A("n2")}), MakeTuple({A("n2"), A("n3")}),
                     MakeTuple({A("n2"), A("n1")})});
  Database db = Db({{"G", g}});
  Bag tc1 = EvalBag(TransitiveClosure(Input("G")), db);
  Bag tc2 = EvalBag(TransitiveClosureBounded(Input("G")), db);
  EXPECT_EQ(tc1, tc2);
}

TEST(EvalTest, IfpIterationBudget) {
  // An IFP whose body strictly grows (adds one more copy each round via ⊎
  // then max with the previous) would iterate forever on multiplicities;
  // the iteration budget stops it.
  Bag b = MakeBag({{MakeTuple({A("x")}), 1}});
  Database db = Db({{"B", b}});
  Limits limits;
  limits.max_fixpoint_iterations = 5;
  Evaluator eval(limits);
  Expr body = Uplus(Var(0), Var(0));  // doubles every round
  auto r = eval.EvalToBag(Ifp(body, Input("B")), db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(eval.stats().fixpoint_iterations, 5u);
}

TEST(EvalTest, NestUnnestThroughEvaluator) {
  Bag b = MakeBagOf({MakeTuple({A("g"), A("x")}), MakeTuple({A("g"), A("y")})});
  Database db = Db({{"B", b}});
  Bag nested = EvalBag(NestExpr(Input("B"), {2}), db);
  EXPECT_EQ(nested.TotalCount(), Mult(1));
  Bag back = EvalBag(UnnestExpr(NestExpr(Input("B"), {2}), 2), db);
  EXPECT_EQ(back.TotalCount(), Mult(2));
}

TEST(EvalTest, EmptyInputTypedResult) {
  Database db;
  ASSERT_TRUE(
      db.Declare("E", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
  Bag r = EvalBag(Map(Tup({Proj(Var(0), 1), Proj(Var(0), 1)}), Input("E")), db);
  EXPECT_TRUE(r.empty());
}

}  // namespace
}  // namespace bagalg
