// Tests for the fused loop IR: compiled row programs, lowering and the IR
// passes (hash-join promotion, pushdowns, CSE), the vectorized batch
// interpreter, exec::RunPipeline's plan-time refusals, and — the
// governor-parity property promised in util/governor.h — byte-for-byte
// agreement between per-row and per-batch checkpoint ticking.

#include "src/ir/lower.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/algebra/row_program.h"
#include "src/analysis/lint.h"
#include "src/analysis/static_cost.h"
#include "src/ir/exec_ir.h"
#include "src/ir/ir.h"
#include "src/ir/run.h"
#include "src/lang/script.h"
#include "src/obs/metrics.h"
#include "src/util/governor.h"

namespace bagalg {
namespace {

using ir::ExecuteIr;
using ir::IrKind;
using ir::LowerToIr;

Value A(const char* name) { return MakeAtom(name); }

Database Db(std::initializer_list<std::pair<std::string, Bag>> items) {
  Database db;
  for (const auto& [name, bag] : items) {
    Status st = db.Put(name, bag);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

/// The §4 join pipeline over B: π_{1,4}(σ_{2=3}(B × B)).
Expr JoinChain(const char* input) {
  return ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                             Product(Input(input), Input(input))),
                      {1, 4});
}

/// A flat bag of n distinct 2-tuples [kI, vI], each with multiplicity 1 —
/// sized to straddle batch boundaries.
Bag DistinctPairs(size_t n) {
  Bag::Builder builder;
  builder.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    builder.AddOne(MakeTuple({MakeAtom("k" + std::to_string(i)),
                              MakeAtom("v" + std::to_string(i % 7))}));
  }
  auto bag = std::move(builder).Build();
  EXPECT_TRUE(bag.ok());
  return *bag;
}

// ------------------------------------------------------------ RowProgram

TEST(RowProgramTest, IdentityFastPath) {
  auto p = RowProgram::Compile(Var(0));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsIdentity());
  EXPECT_EQ(p->ToString(), "x");
  Value row = MakeTuple({A("a"), A("b")});
  auto out = p->Run(row);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, row);
  // The whole row escapes: no column set to push across.
  EXPECT_FALSE(p->ColumnRefs().has_value());
}

TEST(RowProgramTest, FieldRefFastPath) {
  auto p = RowProgram::Compile(Proj(Var(0), 2));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->FieldRef().has_value());
  EXPECT_EQ(*p->FieldRef(), 2u);
  EXPECT_EQ(p->ToString(), "a2");
  auto out = p->Run(MakeTuple({A("a"), A("b")}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, A("b"));
  auto refs = p->ColumnRefs();
  ASSERT_TRUE(refs.has_value());
  EXPECT_EQ(*refs, std::vector<size_t>{2});
}

TEST(RowProgramTest, GatherFastPathSwapsColumns) {
  auto p = RowProgram::Compile(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->Gather().has_value());
  EXPECT_EQ(*p->Gather(), (std::vector<size_t>{2, 1}));
  EXPECT_EQ(p->ToString(), "t(a2, a1)");
  auto out = p->Run(MakeTuple({A("a"), A("b")}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, MakeTuple({A("b"), A("a")}));
}

TEST(RowProgramTest, RunReportsBadProjection) {
  auto p = RowProgram::Compile(Proj(Var(0), 9));
  ASSERT_TRUE(p.ok());
  auto out = p->Run(MakeTuple({A("a"), A("b")}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("bad attribute projection"),
            std::string::npos);
  // Non-tuple operand trips the same way.
  EXPECT_FALSE(RowProgram::Compile(Proj(Var(0), 1))->Run(A("x")).ok());
}

TEST(RowProgramTest, CompileRejectsOutsideFragment) {
  auto deep = RowProgram::Compile(Var(1));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(deep.status().message().find("single binder level"),
            std::string::npos);
  auto bag_op = RowProgram::Compile(Eps(Var(0)));
  ASSERT_FALSE(bag_op.ok());
  EXPECT_EQ(bag_op.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(bag_op.status().message().find("outside the pipeline fragment"),
            std::string::npos);
}

TEST(RowProgramTest, ShiftColumnsRebasesForBuildSide) {
  auto p = RowProgram::Compile(Proj(Var(0), 3));
  ASSERT_TRUE(p.ok());
  p->ShiftColumns(2);
  ASSERT_TRUE(p->FieldRef().has_value());
  EXPECT_EQ(*p->FieldRef(), 1u);
}

TEST(RowProgramTest, RemapColumnsFollowsGatherPermutation) {
  // Pushing a filter on column 2 below a projection t(a3, a1) means the
  // filter must read column 1 of the *unprojected* row.
  auto p = RowProgram::Compile(Proj(Var(0), 2));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->RemapColumns({3, 1}));
  EXPECT_EQ(*p->FieldRef(), 1u);
  // A reference with no mapping refuses the push.
  auto q = RowProgram::Compile(Proj(Var(0), 5));
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->RemapColumns({3, 1}));
}

TEST(RowProgramTest, CompileCellsMapsEveryOutputCell) {
  // Rows [[U, U], U]: cells 0 and 1 are field 1, cell 2 is field 2.
  const Type row = Type::Tuple(
      {Type::Tuple({Type::Atom(), Type::Atom()}), Type::Atom()});
  auto p = RowProgram::Compile(
      Tup({Proj(Var(0), 2), ConstExpr(A("k")), Proj(Var(0), 1)}));
  ASSERT_TRUE(p.ok());
  auto map = p->CompileCells(row);
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(map->type.ToString(), "[U, U, [U, U]]");
  ASSERT_EQ(map->cells.size(), 4u);
  const AtomId cells[] = {10, 11, 12};
  std::vector<AtomId> out;
  for (const CellSource& c : map->cells) out.push_back(c.Read(cells));
  EXPECT_EQ(out, (std::vector<AtomId>{12, A("k").atom_id(), 10, 11}));
  EXPECT_EQ(p->CompileCells(Type::Atom()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RowProgramTest, CompileFilterComparesCellsOrDecidesAtOnce) {
  const Type row = Type::Tuple(
      {Type::Tuple({Type::Atom(), Type::Atom()}), Type::Atom()});
  auto filter = [&row](const Expr& l, const Expr& r) {
    auto lp = RowProgram::Compile(l);
    auto rp = RowProgram::Compile(r);
    EXPECT_TRUE(lp.ok() && rp.ok());
    auto f = RowProgram::CompileFilter(*lp, *rp, row);
    EXPECT_TRUE(f.ok()) << f.status();
    return *f;
  };
  // A nested field never equals an atom field.
  EXPECT_EQ(filter(Proj(Var(0), 1), Proj(Var(0), 2)).kind,
            CellFilter::Kind::kDropAll);
  // Two constants decide every row.
  EXPECT_EQ(filter(ConstExpr(A("k")), ConstExpr(A("k"))).kind,
            CellFilter::Kind::kKeepAll);
  EXPECT_EQ(filter(ConstExpr(A("k")), ConstExpr(A("j"))).kind,
            CellFilter::Kind::kDropAll);
  // Field 1 against a nested constant: one pair per cell.
  const CellFilter f = filter(
      Proj(Var(0), 1), ConstExpr(MakeTuple({A("a"), A("b")})));
  EXPECT_EQ(f.kind, CellFilter::Kind::kCompare);
  EXPECT_EQ(f.pairs.size(), 2u);
}

// ------------------------------------------ batched governor checkpoints

TEST(BatchTickerTest, FullBatchObservesDeadline) {
  GovernorOptions options;
  options.wall_limit_ns = 1;
  ResourceGovernor gov{options};
  BatchCheckpointTicker ticker(&gov);
  // A full batch crosses the stride, so the trip lands on this OnBatch.
  Status st = ticker.OnBatch(1024);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gov.trip_kind(), TripKind::kDeadline);
}

TEST(BatchTickerTest, UngovernedTickerIsANoop) {
  BatchCheckpointTicker ticker(nullptr);
  EXPECT_FALSE(ticker.active());
  EXPECT_TRUE(ticker.OnBatch(1 << 20).ok());
  EXPECT_TRUE(ticker.Flush().ok());
}

// --------------------------------------------------- lowering and passes

TEST(LowerTest, JoinChainPromotesToHashJoin) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  auto plan = LowerToIr(JoinChain("B"), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->passes.hash_joins, 1u);
  ASSERT_NE(plan->root, nullptr);
  EXPECT_EQ(plan->root->kind, IrKind::kHashJoin);
  EXPECT_EQ(plan->root->probe_arity, 2u);
  EXPECT_EQ(plan->root->probe_key, 2u);
  EXPECT_EQ(plan->root->build_key, 1u);
  ASSERT_EQ(plan->root->children.size(), 2u);
  // The fused projection π_{1,4} stays on the join node.
  ASSERT_FALSE(plan->root->stages.empty());
  EXPECT_EQ(plan->root->stages.back().kind, ir::StageKind::kProject);
}

TEST(LowerTest, ExplainIrRendersThePipelineTree) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  auto text = ir::ExplainIr(JoinChain("B"), db);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("ir plan:"), std::string::npos) << *text;
  EXPECT_NE(text->find("batch=1024"), std::string::npos) << *text;
  EXPECT_NE(text->find("hash_join"), std::string::npos) << *text;
  EXPECT_NE(text->find("probe:"), std::string::npos) << *text;
  EXPECT_NE(text->find("build:"), std::string::npos) << *text;
  EXPECT_NE(text->find("| project"), std::string::npos) << *text;
}

TEST(LowerTest, OutsideFragmentIsUnsupported) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  auto plan = LowerToIr(Pow(Input("S")), db);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
  auto missing = LowerToIr(Input("ZZZ"), db);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(LowerTest, CsePassMarksRepeatedBlockingSubplans) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"X", x}});
  auto plan = LowerToIr(Uplus(Eps(Input("X")), Eps(Input("X"))), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // One shared group: the two identical ε pipelines.
  EXPECT_EQ(plan->passes.cse_nodes, 1u);
  ASSERT_EQ(plan->root->children.size(), 2u);
  for (const auto& child : plan->root->children) {
    EXPECT_TRUE(child->cse_shared);
    EXPECT_FALSE(child->cse_key.empty());
  }
  EXPECT_EQ(plan->root->children[0]->cse_key, plan->root->children[1]->cse_key);
}

// ------------------------------------------------ the batch interpreter

TEST(ExecIrTest, JoinMatchesTheEvaluator) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  Evaluator eval;
  auto reference = eval.EvalToBag(JoinChain("B"), db);
  ASSERT_TRUE(reference.ok());
  auto plan = LowerToIr(JoinChain("B"), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto out = ExecuteIr(*plan, db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, *reference);
  EXPECT_EQ(out->CountOf(MakeTuple({A("a"), A("a")})), Mult(12));
}

/// Runs `q` on the IR and checks it against the evaluator, and that the
/// root pipeline saw exactly `rows` rows in ceil(rows / 1024) batches.
void ExpectJoinStream(const Expr& q, const Database& db, IrKind kind,
                      size_t rows) {
  auto plan = LowerToIr(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->root->kind, kind) << ir::ExplainIrPlan(*plan);
  // The root's fused stage makes ir.batches / ir.rows count the join's
  // output batches.
  ASSERT_FALSE(plan->root->stages.empty()) << ir::ExplainIrPlan(*plan);
  obs::Counter* batches = obs::GlobalMetrics().GetCounter("ir.batches");
  obs::Counter* streamed = obs::GlobalMetrics().GetCounter("ir.rows");
  const uint64_t batches_before = batches->value();
  const uint64_t rows_before = streamed->value();
  auto out = ExecuteIr(*plan, db);
  ASSERT_TRUE(out.ok()) << out.status();
  Evaluator eval;
  auto reference = eval.EvalToBag(q, db);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*out, *reference) << "rows=" << rows;
  EXPECT_EQ(out->TotalCount(), Mult(rows)) << "rows=" << rows;
  EXPECT_EQ(streamed->value() - rows_before, rows);
  EXPECT_EQ(batches->value() - batches_before,
            (rows + ir::kDefaultBatchSize - 1) / ir::kDefaultBatchSize);
}

TEST(ExecIrTest, BatchBoundarySizesRoundTrip) {
  // One row short of a batch, exactly one batch, one row over.
  for (size_t n : {1023u, 1024u, 1025u}) {
    Database db = Db({{"R", DistinctPairs(n)}});
    Expr q = Select(Proj(Var(0), 2), Proj(Var(0), 2),
                    ProjectAttrs(Input("R"), {2, 1}));
    Evaluator eval;
    auto reference = eval.EvalToBag(q, db);
    ASSERT_TRUE(reference.ok());
    auto plan = LowerToIr(q, db);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto out = ExecuteIr(*plan, db);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, *reference) << "n=" << n;
    EXPECT_EQ(out->TotalCount(), Mult(n)) << "n=" << n;
  }

  // Hash join: probe [p0, a] matches 1000 build rows, [p1, none] matches
  // nothing, [p2, b] matches the last n - 1000. So p2's matches end one
  // short of the batch, exactly at it, or straddle it.
  for (size_t n : {1023u, 1024u, 1025u}) {
    Bag probe = MakeBag({{MakeTuple({A("p0"), A("a")}), 1},
                         {MakeTuple({A("p1"), A("none")}), 1},
                         {MakeTuple({A("p2"), A("b")}), 1}});
    Bag::Builder builder;
    for (size_t i = 0; i < n; ++i) {
      builder.AddOne(MakeTuple({A(i < 1000 ? "a" : "b"),
                                MakeAtom("q" + std::to_string(i))}));
    }
    auto build = std::move(builder).Build();
    ASSERT_TRUE(build.ok());
    Database db = Db({{"P", probe}, {"Q", *build}});
    const Expr q = ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                                       Product(Input("P"), Input("Q"))),
                                {1, 4});
    SCOPED_TRACE("hash join, n=" + std::to_string(n));
    ExpectJoinStream(q, db, IrKind::kHashJoin, n);
  }
  // Cross join of p probe rows by b build rows; for 1025 = 25 x 41 the
  // boundary falls inside probe row 24's run of matches. Swapping the two
  // sides' columns keeps the projection on the join node.
  const std::pair<size_t, size_t> shapes[] = {{33, 31}, {32, 32}, {25, 41}};
  for (const auto& [p, b] : shapes) {
    Database db = Db({{"P", DistinctPairs(p)}, {"Q", DistinctPairs(b)}});
    const Expr q =
        ProjectAttrs(Product(Input("P"), Input("Q")), {3, 4, 1, 2});
    SCOPED_TRACE("cross join, rows=" + std::to_string(p * b));
    ExpectJoinStream(q, db, IrKind::kCrossJoin, p * b);
  }
}

TEST(ExecIrTest, MergeKindsAgreeWithTheEvaluator) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Bag y = MakeBag({{MakeTuple({A("x")}), 2}, {MakeTuple({A("z")}), 7}});
  Database db = Db({{"X", x}, {"Y", y}});
  Evaluator eval;
  const Expr queries[] = {Monus(Input("X"), Input("Y")),
                          Umax(Input("X"), Input("Y")),
                          Inter(Input("X"), Input("Y"))};
  for (const Expr& q : queries) {
    auto reference = eval.EvalToBag(q, db);
    ASSERT_TRUE(reference.ok());
    auto native = LowerToIr(q, db);
    ASSERT_TRUE(native.ok()) << native.status();
    EXPECT_EQ(native->root->kind, IrKind::kMerge);
    auto native_out = ExecuteIr(*native, db);
    ASSERT_TRUE(native_out.ok()) << native_out.status();
    EXPECT_EQ(*native_out, *reference) << q.ToString();
  }
}

TEST(ExecIrTest, CseSharingPreservesSemantics) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"X", x}});
  Expr q = Uplus(Eps(Input("X")), Eps(Input("X")));
  Evaluator eval;
  auto reference = eval.EvalToBag(q, db);
  ASSERT_TRUE(reference.ok());
  auto plan = LowerToIr(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_GE(plan->passes.cse_nodes, 1u);
  auto out = ExecuteIr(*plan, db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, *reference);
}

// ------------------------------------------------- exec::RunPipeline

TEST(EngineTest, StrictIrRefusesUnsupportedPlans) {
  // There is no second engine to retry on: a plan the IR cannot lower
  // fails with the IR's status.
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  auto out = exec::RunPipeline(Pow(Input("S")), db);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
}

TEST(EngineTest, StrictIrCatchesIllTypedLambdasAtPlanTime) {
  // The IR engine typechecks before lowering, so an out-of-range
  // projection is a plan-time kTypeError rather than a mid-run abort.
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 1}});
  Database db = Db({{"B", b}});
  auto out = exec::RunPipeline(Map(Proj(Var(0), 9), Input("B")), db);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeError);
}

// ------------------------------------------------------- REPL and lint

TEST(IrScriptTest, ExplainIrCommandRendersThePlan) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{[a, b], [b, a]}}").ok());
  auto out = runner.RunLine(
      "explain ir map(x -> tup(proj(2, x)), sel(x -> proj(1, x) == 'a, B))");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("ir plan:"), std::string::npos) << *out;
  EXPECT_NE(out->find("batch=1024"), std::string::npos) << *out;
  EXPECT_NE(out->find("scan B"), std::string::npos) << *out;
}

TEST(IrScriptTest, JournalRecordsTheEngineThatRan) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{[a, b], [b, a]}}").ok());
  ASSERT_TRUE(runner.RunLine("exec uplus(B, B)").ok());
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].kind, "exec");
  EXPECT_EQ(tail[0].engine, "ir");
  ASSERT_TRUE(runner.RunLine("eval uplus(B, B)").ok());
  tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].engine, "eval");
}

TEST(IrScriptTest, ExecRefusesPlansOutsideItsFragmentAsWritten) {
  // exec lowers the statement as written, with no algebra rewriting
  // first: a plan outside the fragment is refused even where `optimize`
  // would shrink it into the fragment (destroy-map-beta turns the first
  // into R; constant folding evaluates the closed powerset of the second).
  // eval still runs both.
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b]*2, [b, c]}}").ok());
  const struct {
    const char* query;
    const char* eval_output;
  } cases[] = {
      {"flat(map(x -> bag(x), R))", "{{[a, b]*2, [b, c]}}"},
      {"uplus(map(x -> tup(x), flat(pow(bag('a)))), "
       "map(x -> tup(proj(1, x)), R))",
       "{{[a]*3, [b]}}"},
  };
  for (const auto& c : cases) {
    auto exec = runner.RunLine(std::string("exec ") + c.query);
    ASSERT_FALSE(exec.ok()) << c.query << " ran as " << *exec;
    EXPECT_EQ(exec.status().code(), StatusCode::kUnsupported)
        << c.query << ": " << exec.status();
    auto eval = runner.RunLine(std::string("eval ") + c.query);
    ASSERT_TRUE(eval.ok()) << c.query << ": " << eval.status();
    EXPECT_EQ(*eval, c.eval_output) << c.query;
  }
}

TEST(LintTest, W005FiresWhenPowersetBlocksFusion) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")}),
                                     MakeTuple({A("y")})})}});
  auto diags = analysis::RunLint(Eps(Pow(Input("S"))), db.schema(),
                                 analysis::CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const auto& d : *diags) found |= d.code == "W005";
  EXPECT_TRUE(found);

  auto map_over = analysis::RunLint(Map(Var(0), Pow(Input("S"))), db.schema(),
                                    analysis::CostFacts::Symbolic());
  ASSERT_TRUE(map_over.ok()) << map_over.status();
  found = false;
  for (const auto& d : *map_over) found |= d.code == "W005";
  EXPECT_TRUE(found);
}

TEST(LintTest, W005SilentOnFusiblePlans) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 1}});
  Database db = Db({{"B", b}});
  auto diags = analysis::RunLint(JoinChain("B"), db.schema(),
                                 analysis::CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  for (const auto& d : *diags) EXPECT_NE(d.code, "W005");
  // P in operand position (not pipeline position) is W001's business only.
  auto hoisted = analysis::RunLint(Pow(Eps(Input("B"))), db.schema(),
                                   analysis::CostFacts::Symbolic());
  ASSERT_TRUE(hoisted.ok()) << hoisted.status();
  for (const auto& d : *hoisted) EXPECT_NE(d.code, "W005");
}

}  // namespace
}  // namespace bagalg
