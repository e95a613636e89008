// Tests for `exec` (exec::RunPipeline, which runs plans on the fused IR):
// per-operator behaviour, fragment and type gating, and — the
// load-bearing property — exact agreement with the tree-walking evaluator
// on randomly generated BALG¹ queries.

#include "src/ir/run.h"

#include <gtest/gtest.h>

#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/stats/expr_gen.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"
#include "tests/flat_model.h"

namespace bagalg {
namespace {

using exec::RunPipeline;

Value A(const char* name) { return MakeAtom(name); }

Database Db(std::initializer_list<std::pair<std::string, Bag>> items) {
  Database db;
  for (const auto& [name, bag] : items) {
    Status st = db.Put(name, bag);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

TEST(ExecTest, ScanStreamsCanonicalEntries) {
  Bag b = MakeBag({{MakeTuple({A("x")}), 3}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"B", b}});
  auto plan = ir::LowerToIr(Input("B"), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto out = ir::ExecuteIr(*plan, db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, b);
  // A plan runs again from the start.
  auto again = ir::ExecuteIr(*plan, db);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, b);
}

TEST(ExecTest, JoinPipelineMatchesSection4Table) {
  const uint64_t n = 4, m = 3;
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), n},
                   {MakeTuple({A("b"), A("a")}), m}});
  Database db = Db({{"B", b}});
  Expr q = ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                               Product(Input("B"), Input("B"))),
                        {1, 4});
  auto out = RunPipeline(q, db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->CountOf(MakeTuple({A("a"), A("a")})), Mult(n * m));
  EXPECT_EQ(out->CountOf(MakeTuple({A("b"), A("b")})), Mult(n * m));
}

TEST(ExecTest, MergeOperatorsMatchSemantics) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Bag y = MakeBag({{MakeTuple({A("x")}), 2}, {MakeTuple({A("z")}), 7}});
  Database db = Db({{"X", x}, {"Y", y}});
  auto monus = RunPipeline(Monus(Input("X"), Input("Y")), db);
  ASSERT_TRUE(monus.ok());
  EXPECT_EQ(monus->CountOf(MakeTuple({A("x")})), Mult(3));
  auto um = RunPipeline(Umax(Input("X"), Input("Y")), db);
  ASSERT_TRUE(um.ok());
  EXPECT_EQ(um->CountOf(MakeTuple({A("z")})), Mult(7));
  auto in = RunPipeline(Inter(Input("X"), Input("Y")), db);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->TotalCount(), Mult(2));
  auto up = RunPipeline(Uplus(Input("X"), Input("Y")), db);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->CountOf(MakeTuple({A("x")})), Mult(7));
  auto de = RunPipeline(Eps(Input("X")), db);
  ASSERT_TRUE(de.ok());
  EXPECT_TRUE(de->IsSetLike());
}

TEST(ExecTest, MapMergesEqualImagesThroughSink) {
  // MAP collapsing everything to [k]: the stream emits two rows for [k];
  // the sink must merge to multiplicity 6 (additive MAP semantics).
  Bag b = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"B", b}});
  auto out = RunPipeline(Map(Tup({ConstExpr(A("k"))}), Input("B")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->CountOf(MakeTuple({A("k")})), Mult(6));
}

TEST(ExecTest, RejectsOperatorsOutsideFragment) {
  Database db = Db({{"B", MakeBagOf({MakeTuple({A("x")})})},
                    {"G", MakeBagOf({MakeTuple({A("x"), A("y")})})}});
  EXPECT_EQ(RunPipeline(Pow(Input("B")), db).status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(RunPipeline(Destroy(Pow(Input("B"))), db).status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(
      RunPipeline(TransitiveClosure(Input("G")), db).status().code(),
      StatusCode::kUnsupported);
  // Bag-building lambda bodies are out too.
  EXPECT_EQ(RunPipeline(Map(Beta(Var(0)), Input("B")), db).status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(RunPipeline(Input("ZZZ"), db).status().code(),
            StatusCode::kNotFound);
}

TEST(ExecTest, IllTypedUnionsAreTypeErrorsLikeEval) {
  // ⊎ and ∸ of a 2-ary and a 1-ary tuple bag do not typecheck. exec must
  // refuse them with the same kTypeError as eval, not run them.
  Database db = Db({{"B", MakeBagOf({MakeTuple({A("x"), A("y")})})}});
  ASSERT_TRUE(db.Declare("E", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
  Evaluator eval;
  for (const Expr& q : {Uplus(Input("B"), Input("E")),
                        Monus(Input("B"), Input("E"))}) {
    auto reference = eval.EvalToBag(q, db);
    ASSERT_FALSE(reference.ok()) << q.ToString();
    EXPECT_EQ(reference.status().code(), StatusCode::kTypeError);
    auto out = RunPipeline(q, db);
    ASSERT_FALSE(out.ok()) << q.ToString() << " = " << out->ToString();
    EXPECT_EQ(out.status().code(), reference.status().code())
        << q.ToString() << ": " << out.status();
  }
}

TEST(ExecTest, EmptyInputsFlowThrough) {
  Database db;
  ASSERT_TRUE(db.Declare("E", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
  auto out = RunPipeline(
      Product(Input("E"), Uplus(Input("E"), Input("E"))), db);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

/// exec, eval and the flat model on one query: exec equals the model
/// exactly (element type included), and eval equals exec as a bag.
void ExpectThreeWayAgreement(const Expr& q, const Database& db) {
  auto want = model::Eval(q, db);
  ASSERT_TRUE(want.ok()) << q.ToString() << ": " << want.status();
  auto out = RunPipeline(q, db);
  ASSERT_TRUE(out.ok()) << q.ToString() << ": " << out.status();
  EXPECT_EQ(model::Diff(*out, *want), "") << q.ToString();
  Evaluator eval;
  auto reference = eval.EvalToBag(q, db);
  ASSERT_TRUE(reference.ok()) << q.ToString() << ": " << reference.status();
  EXPECT_EQ(*out, *reference) << q.ToString();
}

TEST(ExecTest, AtomRowsAgreeWithEvalAndTheModel) {
  Database db = Db({{"A", MakeBag({{A("a"), 2}, {A("b"), 1}, {A("c"), 3}})},
                    {"B", MakeBag({{A("a"), 1}, {A("c"), 5}})},
                    {"R", MakeBag({{MakeTuple({A("a"), A("b")}), 2},
                                   {MakeTuple({A("c"), A("b")}), 1}})}});
  for (const Expr& q :
       {Uplus(Input("A"), Input("B")), Monus(Input("A"), Input("B")),
        Umax(Input("A"), Input("B")), Inter(Input("A"), Input("B")),
        Eps(Input("A")), Select(Var(0), ConstExpr(A("c")), Input("A")),
        Map(Tup({Var(0), Var(0)}), Input("A")),
        Map(Proj(Var(0), 2), Input("R")),
        Map(ConstExpr(A("k")), Input("R"))}) {
    ExpectThreeWayAgreement(q, db);
  }
}

TEST(ExecTest, NestedTupleRowsAgreeWithEvalAndTheModel) {
  Database db = Db({{"R", MakeBag({{MakeTuple({A("a"), A("b")}), 2},
                                   {MakeTuple({A("b"), A("a")}), 1},
                                   {MakeTuple({A("c"), A("a")}), 4}})}});
  // [[b, a], a]-shaped rows: the first field spans two cells.
  const Expr nested = Map(
      Tup({Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Proj(Var(0), 1)}),
      Input("R"));
  ExpectThreeWayAgreement(nested, db);
  ExpectThreeWayAgreement(Uplus(nested, nested), db);
  ExpectThreeWayAgreement(Monus(Uplus(nested, nested), nested), db);
  ExpectThreeWayAgreement(Eps(nested), db);
  ExpectThreeWayAgreement(Map(Proj(Var(0), 1), nested), db);
  ExpectThreeWayAgreement(
      Select(Proj(Proj(Var(0), 1), 1), Proj(Var(0), 2), nested), db);
  // A hash join keyed on the nested field (a two-cell key).
  ExpectThreeWayAgreement(
      Select(Proj(Var(0), 1), Proj(Var(0), 3), Product(nested, nested)), db);
  auto out = RunPipeline(nested, db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->element_type().ToString(), "[[U, U], U]");
}

TEST(ExecTest, EmptyResultsHaveTheBottomElementType) {
  Database db = Db({{"R", MakeBag({{MakeTuple({A("a"), A("b")}), 2}})}});
  for (const Expr& q : {Monus(Input("R"), Input("R")),
                        Select(Proj(Var(0), 1), ConstExpr(A("z")), Input("R")),
                        Inter(Input("R"), Map(Tup({Proj(Var(0), 2),
                                                   Proj(Var(0), 1)}),
                                              Input("R")))}) {
    auto out = RunPipeline(q, db);
    ASSERT_TRUE(out.ok()) << q.ToString() << ": " << out.status();
    EXPECT_TRUE(out->empty()) << q.ToString();
    EXPECT_TRUE(out->element_type().IsBottom()) << q.ToString();
    ExpectThreeWayAgreement(q, db);
  }
}

TEST(ExecTest, HashJoinCountsPastTwoToThe64AgreeWithEvalAndTheModel) {
  const Mult big = Mult::TwoPow(40) + Mult(3);
  Bag::Builder r;
  Bag::Builder s;
  for (int i = 0; i < 40; ++i) {
    const Value k = A(("k" + std::to_string(i % 7)).c_str());
    r.Add(MakeTuple({A(("r" + std::to_string(i)).c_str()), k}), big);
    s.Add(MakeTuple({k, A(("s" + std::to_string(i)).c_str())}),
          big * Mult(static_cast<uint64_t>(i + 1)));
  }
  Database db = Db({{"R", std::move(r).Build().value()},
                    {"S", std::move(s).Build().value()}});
  const Expr q = ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                                     Product(Input("R"), Input("S"))),
                              {1, 4});
  auto plan = ir::LowerToIr(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(ir::ExplainIrPlan(*plan).find("hash_join"), std::string::npos)
      << ir::ExplainIrPlan(*plan);
  ExpectThreeWayAgreement(q, db);
  auto out = RunPipeline(q, db);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->TotalCount().BitLength(), 64u);
}

TEST(ExecTest, BagsOfBagsAreUnsupportedUnderExecAndRunUnderEval) {
  Database db = Db({{"N", MakeBag({{Value::FromBag(MakeBagOf({A("a")})), 2},
                                   {Value::FromBag(MakeBagOf({A("b")})), 1}})},
                    {"R", MakeBagOf({MakeTuple({A("a")})})}});
  Evaluator eval;
  for (const Expr& q : {Input("N"), Eps(Input("N")),
                        Uplus(Input("N"), Input("N"))}) {
    auto out = RunPipeline(q, db);
    ASSERT_FALSE(out.ok()) << q.ToString();
    EXPECT_EQ(out.status().code(), StatusCode::kUnsupported)
        << q.ToString() << ": " << out.status();
    EXPECT_NE(out.status().message().find("bag nesting 2"),
              std::string::npos)
        << out.status();
    EXPECT_TRUE(eval.EvalToBag(q, db).ok()) << q.ToString();
  }
}

class ExecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecFuzzTest, PipelineAgreesWithEvaluatorOnBalg1) {
  Rng rng(GetParam());
  Type tup1 = Type::Tuple({Type::Atom()});
  Type tup2 = Type::Tuple({Type::Atom(), Type::Atom()});
  Schema schema{{"R", Type::Bag(tup1)}, {"S", Type::Bag(tup2)}};
  ExprGenOptions options;
  options.max_bag_nesting = 1;   // the BALG¹ pipeline fragment
  options.allow_powerset = false;
  options.growth_rounds = 14;
  Evaluator eval;
  int compiled = 0;
  for (int i = 0; i < 80; ++i) {
    auto e = RandomExpr(rng, schema, options);
    ASSERT_TRUE(e.ok());
    FlatBagSpec spec1;
    spec1.arity = 1;
    spec1.num_elements = 4;
    FlatBagSpec spec2 = spec1;
    spec2.arity = 2;
    Database db;
    ASSERT_TRUE(db.Put("R", RandomFlatBag(rng, spec1)).ok());
    ASSERT_TRUE(db.Put("S", RandomFlatBag(rng, spec2)).ok());
    auto reference = eval.EvalToBag(*e, db);
    ASSERT_TRUE(reference.ok()) << e->ToString();
    auto pipeline = RunPipeline(*e, db);
    ASSERT_TRUE(pipeline.ok()) << e->ToString() << "\n" << pipeline.status();
    ++compiled;
    EXPECT_EQ(*pipeline, *reference) << e->ToString();
  }
  EXPECT_EQ(compiled, 80);  // the whole generated fragment must compile
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzzTest,
                         ::testing::Values(71, 72, 73, 74));

}  // namespace
}  // namespace bagalg
