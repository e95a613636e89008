// The IR verifier, the dataflow fact framework, the fact-driven passes,
// and the translation-validation harness — including the seeded
// mutation corpus: every intentionally broken pass variant behind
// SetPassMutationForTesting must be rejected by the verifier or by
// translation validation, with zero silent escapes. Also pins the lint
// registry's ordering contract and the W006/W007 rules that surface the
// same facts at the algebra level.

#include "src/ir/verify.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/analysis/lint.h"
#include "src/ir/dataflow.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/ir/passes.h"
#include "src/stats/expr_gen.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

using analysis::CostFacts;
using analysis::LintDiag;
using analysis::LintRule;
using analysis::LintRuleRegistry;
using analysis::RunLint;
using ir::ComputeIrFacts;
using ir::ComputeRowLayouts;
using ir::IrFacts;
using ir::IrKind;
using ir::IrNode;
using ir::IrPlan;
using ir::IrVerifyEnabled;
using ir::LowerOptions;
using ir::LowerToIr;
using ir::PassMutation;
using ir::SetPassMutationForTesting;
using ir::Stage;
using ir::StageKind;
using ir::ValidateTranslation;
using ir::ValidationReport;
using ir::VerifyIr;

Value A(const char* name) { return MakeAtom(name); }

/// R: set-like 2-tuples with a distinct key column and a duplicate-heavy
/// value column; R2: a second such bag sharing some values with R.
/// S: unary tuples with real duplicate counts (not set-like).
Database CorpusDb() {
  Database db;
  EXPECT_TRUE(db.Put("R", MakeBag({{MakeTuple({A("k0"), A("v0")}), 1},
                                   {MakeTuple({A("k1"), A("v1")}), 1},
                                   {MakeTuple({A("k2"), A("v0")}), 1},
                                   {MakeTuple({A("k3"), A("v2")}), 1}}))
                  .ok());
  EXPECT_TRUE(db.Put("R2", MakeBag({{MakeTuple({A("a0"), A("v0")}), 1},
                                    {MakeTuple({A("a1"), A("v1")}), 1},
                                    {MakeTuple({A("a2"), A("v5")}), 1}}))
                  .ok());
  EXPECT_TRUE(db.Put("S", MakeBag({{MakeTuple({A("x")}), 5},
                                   {MakeTuple({A("y")}), 2},
                                   {MakeTuple({A("z")}), 1}}))
                  .ok());
  // N, N2: rows [[a, b], c] whose first field is a nested tuple.
  EXPECT_TRUE(db.Put("N", MakeBag({{MakeTuple({MakeTuple({A("a"), A("b")}),
                                               A("c")}),
                                    2},
                                   {MakeTuple({MakeTuple({A("b"), A("a")}),
                                               A("c")}),
                                    1}}))
                  .ok());
  EXPECT_TRUE(db.Put("N2", MakeBag({{MakeTuple({MakeTuple({A("a"), A("b")}),
                                                A("d")}),
                                     3}}))
                  .ok());
  return db;
}

/// Restores PassMutation::kNone on scope exit.
struct MutationGuard {
  explicit MutationGuard(PassMutation m) { SetPassMutationForTesting(m); }
  ~MutationGuard() { SetPassMutationForTesting(PassMutation::kNone); }
};

RowProgram MustCompile(const Expr& body) {
  auto program = RowProgram::Compile(body);
  EXPECT_TRUE(program.ok()) << program.status();
  return *std::move(program);
}

Stage FilterStage(const Expr& lhs, const Expr& rhs) {
  Stage stage;
  stage.kind = StageKind::kFilter;
  stage.program = MustCompile(lhs);
  stage.rhs = MustCompile(rhs);
  return stage;
}

Stage ProjectStage(const Expr& body) {
  Stage stage;
  stage.kind = StageKind::kProject;
  stage.program = MustCompile(body);
  return stage;
}

std::unique_ptr<IrNode> ScanOf(const char* name, Bag bag) {
  auto node = std::make_unique<IrNode>(IrKind::kScan);
  node->scan_name = name;
  node->scan_bag = std::move(bag);
  return node;
}

Bag TwoColBag() {
  auto bag = MakeBag({{MakeTuple({A("k0"), A("v0")}), 1},
                      {MakeTuple({A("k1"), A("v1")}), 2}});
  return bag;
}

// --------------------------------------------------- verifier structure

TEST(VerifyIrTest, AcceptsAWellFormedPlan) {
  IrPlan plan;
  plan.root = ScanOf("B", TwoColBag());
  plan.root->stages.push_back(
      FilterStage(Proj(Var(0), 1), ConstExpr(A("k0"))));
  plan.root->stages.push_back(ProjectStage(Tup({Proj(Var(0), 2)})));
  EXPECT_TRUE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsFilterColumnOffTheRowShape) {
  IrPlan plan;
  plan.root = ScanOf("B", TwoColBag());
  plan.root->stages.push_back(
      FilterStage(Proj(Var(0), 5), ConstExpr(A("k0"))));
  Status st = VerifyIr(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ir verify"), std::string::npos) << st;
}

TEST(VerifyIrTest, RejectsGatherNamingAMissingColumn) {
  IrPlan plan;
  plan.root = ScanOf("B", TwoColBag());
  plan.root->stages.push_back(
      ProjectStage(Tup({Proj(Var(0), 1), Proj(Var(0), 3)})));
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsHashJoinKeyOutsideItsSide) {
  IrPlan plan;
  auto join = std::make_unique<IrNode>(IrKind::kHashJoin);
  join->children.push_back(ScanOf("B", TwoColBag()));
  join->children.push_back(ScanOf("C", TwoColBag()));
  join->probe_arity = 2;
  join->probe_key = 3;  // off the probe row
  join->build_key = 1;
  plan.root = std::move(join);
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsProbeArityDisagreeingWithTheProbeChild) {
  IrPlan plan;
  auto join = std::make_unique<IrNode>(IrKind::kCrossJoin);
  join->children.push_back(ScanOf("B", TwoColBag()));
  join->children.push_back(ScanOf("C", TwoColBag()));
  join->probe_arity = 4;  // the probe child produces 2-tuples
  plan.root = std::move(join);
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsUnionOfConflictingShapes) {
  IrPlan plan;
  auto u = std::make_unique<IrNode>(IrKind::kUnionAll);
  u->children.push_back(ScanOf("B", TwoColBag()));
  u->children.push_back(
      ScanOf("C", MakeBag({{MakeTuple({A("x")}), 1}})));  // 1-tuple bag
  plan.root = std::move(u);
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsUnionWithOneInput) {
  IrPlan plan;
  auto u = std::make_unique<IrNode>(IrKind::kUnionAll);
  u->children.push_back(ScanOf("B", TwoColBag()));
  plan.root = std::move(u);
  Status st = VerifyIr(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ir verify: union with fewer than two inputs"),
            std::string::npos)
      << st;
}

TEST(VerifyIrTest, RejectsUnionWithNoInputs) {
  IrPlan plan;
  plan.root = std::make_unique<IrNode>(IrKind::kUnionAll);
  Status st = VerifyIr(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ir verify: union with fewer than two inputs"),
            std::string::npos)
      << st;
}

TEST(VerifyIrTest, EnvOverrideParsesBothDirections) {
  // Can only observe the process's cached value; assert it is consistent
  // with the environment contract rather than flipping it mid-process.
  const char* env = std::getenv("BAGALG_IR_VERIFY");
  if (env != nullptr && std::string(env) == "1") {
    EXPECT_TRUE(IrVerifyEnabled());
  }
  if (env != nullptr && std::string(env) == "0") {
    EXPECT_FALSE(IrVerifyEnabled());
  }
#ifndef NDEBUG
  if (env == nullptr) EXPECT_TRUE(IrVerifyEnabled());
#endif
}

// ------------------------------------------------------- dataflow facts

TEST(IrFactsTest, ScanFactsCoverShapeDupFreedomKeysAndInterval) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Input("R"), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto layouts = ComputeRowLayouts(*plan);
  ASSERT_TRUE(layouts.ok()) << layouts.status();
  const Type& row = layouts->at(plan->root.get()).out();
  ASSERT_TRUE(row.IsTuple()) << row.ToString();
  EXPECT_EQ(row.fields().size(), 2u);
  const IrFacts root = ComputeIrFacts(*plan, *layouts).at(plan->root.get());
  EXPECT_TRUE(root.dup_free);  // R is set-like
  EXPECT_TRUE(root.HasKeyWithin({1}, row));  // k0..k3 are distinct
  EXPECT_EQ(root.min_rows, 4u);
  EXPECT_EQ(root.max_rows, 4u);
}

TEST(IrFactsTest, DupElimProvesDupFreedomOverADupHeavyScan) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Eps(Input("S")), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto layouts = ComputeRowLayouts(*plan);
  ASSERT_TRUE(layouts.ok()) << layouts.status();
  EXPECT_TRUE(ComputeIrFacts(*plan, *layouts).at(plan->root.get()).dup_free);
}

/// The rendered facts of the root of `q` over R (verification on).
std::string RootFacts(const Expr& q) {
  LowerOptions options;
  options.verify = LowerOptions::Verify::kOn;
  auto out = ir::ExplainIrFacts(q, CorpusDb(), options);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return std::string();
  // The root is the plan's second line.
  const size_t begin = out->find('\n') + 1;
  return out->substr(begin, out->find('\n', begin) - begin);
}

TEST(IrFactsTest, MixedProjectionKeepsItsKeyAndProvesItsConstant) {
  // t(a1, 'k') over R: field 1 copies R's key column, field 2 is constant.
  const std::string root =
      RootFacts(Map(Tup({Proj(Var(0), 1), ConstExpr(A("k"))}), Input("R")));
  EXPECT_NE(root.find("[arity=2 dup_free key{1} const{2=k} rows=4..4]"),
            std::string::npos)
      << root;
}

TEST(IrFactsTest, NestedProjectionFieldCopiesTheKeyColumn) {
  // t(a1, t(a2, 'k')) over R: field 2 mixes a copied cell and a constant,
  // so it is neither a column copy nor a constant; field 1 keeps the key.
  const std::string root = RootFacts(Map(
      Tup({Proj(Var(0), 1), Tup({Proj(Var(0), 2), ConstExpr(A("k"))})}),
      Input("R")));
  EXPECT_NE(root.find("[arity=2 dup_free key{1} rows=4..4]"),
            std::string::npos)
      << root;
}

/// Lowers `q` over the corpus (verification on) and expects ExecuteIr to
/// return the evaluator's bag, which is non-empty.
void ExpectExecMatchesEval(const Expr& q) {
  Database db = CorpusDb();
  LowerOptions options;
  options.verify = LowerOptions::Verify::kOn;
  auto plan = LowerToIr(q, db, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(q, db);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_GT(want->DistinctCount(), 0u);
  EXPECT_TRUE(*got == *want) << got->ToString() << " vs " << want->ToString();
}

TEST(IrFactsTest, OneTupleWrapOfAConstantColumnIsNotThatConstant) {
  // Column 1 is the constant k0 after the filter; t(t(a1), a2) puts the
  // same single cell in field 1, but as the 1-tuple [k0], not the atom.
  const Expr wrap =
      Map(Tup({Tup({Proj(Var(0), 1)}), Proj(Var(0), 2)}),
          Select(Proj(Var(0), 1), ConstExpr(A("k0")), Input("R")));
  const std::string root = RootFacts(wrap);
  EXPECT_EQ(root.find("const"), std::string::npos) << root;
  ExpectExecMatchesEval(Select(Proj(Var(0), 1),
                               ConstExpr(MakeTuple({A("k0")})), wrap));
}

TEST(IrFactsTest, ReNestedFieldOfAConstantColumnIsNotThatConstant) {
  // N2's column 1 is the constant [a, b]; t(t(t(a1.1), a1.2), a2) keeps
  // its two cells in order but re-nests them as [[a], b].
  const Expr renest = Map(
      Tup({Tup({Tup({Proj(Proj(Var(0), 1), 1)}), Proj(Proj(Var(0), 1), 2)}),
           Proj(Var(0), 2)}),
      Input("N2"));
  const std::string root = RootFacts(renest);
  EXPECT_EQ(root.find("const{1="), std::string::npos) << root;
  ExpectExecMatchesEval(
      Select(Proj(Var(0), 1),
             ConstExpr(MakeTuple({MakeTuple({A("a")}), A("b")})), renest));
}

TEST(IrFactsTest, ExplainIrFactsRendersTheAnnotations) {
  Database db = CorpusDb();
  auto out = ir::ExplainIrFacts(
      Select(Proj(Var(0), 1), ConstExpr(A("k0")), Input("R")), db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("dup_free"), std::string::npos) << *out;
  EXPECT_NE(out->find("rows="), std::string::npos) << *out;
  EXPECT_NE(out->find("const{1=k0}"), std::string::npos) << *out;
}

// --------------------------------------------------- fact-driven passes

TEST(FactPassTest, RedundantDupElimIsRemovedOverASetLikeScan) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Eps(Input("R")), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->passes.dup_elims_removed, 1u);
  EXPECT_EQ(plan->root->kind, IrKind::kScan);
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(Eps(Input("R")), db);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(*got == *want);
}

TEST(FactPassTest, DupElimOverADupHeavyScanIsKept) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Eps(Input("S")), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->passes.dup_elims_removed, 0u);
  EXPECT_EQ(plan->root->kind, IrKind::kDupElim);
}

TEST(FactPassTest, DeadColumnsNarrowAJoinSide) {
  Database db = CorpusDb();
  // Join R and R2 on their value columns, then keep only R's key: R2
  // contributes no live column beyond its join key.
  Expr q = ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                               Product(Input("R"), Input("R2"))),
                        {1});
  auto plan = LowerToIr(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->passes.dead_columns, 0u);
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(q, db);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(*got == *want);
}

TEST(FactPassTest, ConstFoldErasesATautologicalFilter) {
  Database db = CorpusDb();
  // MAP builds ('x, a1); the filter compares the constant column to 'x.
  Expr q = Select(Proj(Var(0), 1), ConstExpr(A("x")),
                  Map(Tup({ConstExpr(A("x")), Proj(Var(0), 1)}),
                      Input("S")));
  auto plan = LowerToIr(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->passes.const_folds, 0u);
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(q, db);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(*got == *want);
}

TEST(FactPassTest, ConstFoldEmptiesAProvablyFalseFilter) {
  Database db = CorpusDb();
  Expr q = Select(Proj(Var(0), 1), ConstExpr(A("nope")),
                  Map(Tup({ConstExpr(A("x")), Proj(Var(0), 1)}),
                      Input("S")));
  auto plan = LowerToIr(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto got = ExecuteIr(*plan, db);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->DistinctCount(), 0u);
}

// --------------------------------------------- translation validation

TEST(ValidateTranslationTest, SoundPassesValidateCleanly) {
  Database db = CorpusDb();
  const std::vector<Expr> corpus = {
      Eps(Input("R")),
      Select(Proj(Var(0), 2), Proj(Var(0), 4),
             Product(Input("R"), Input("R2"))),
      ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                          Product(Input("R"), Input("R2"))),
                   {1}),
      Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2"))),
      Select(Proj(Var(0), 1), ConstExpr(A("v0")),
             Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R"))),
  };
  for (const Expr& q : corpus) {
    ValidationReport report;
    Status st = ValidateTranslation(q, db, &report);
    EXPECT_TRUE(st.ok()) << q.ToString() << ": " << st;
    EXPECT_GT(report.passes_changed, 0u) << q.ToString();
  }
}

// Each seeded mutation must be rejected by the verifier or by
// translation validation — zero silent escapes. Every trigger expression
// is chosen so the mutated code path demonstrably fires (the companion
// sanity check: with kNone the same expression validates cleanly).
struct MutationCase {
  PassMutation mutation;
  const char* name;
  Expr expr;
};

/// τ(α1(x), α2(x)) over N ⊎ N2: union pushdown clones the gather into
/// both inputs, whose first field is a nested tuple.
Expr NestedUnionTrigger() {
  return Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}),
             Uplus(Input("N"), Input("N2")));
}

std::vector<MutationCase> MutationCorpus() {
  Expr reorder_trigger =
      Select(Proj(Var(0), 1), ConstExpr(A("v0")),
             Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R")));
  Expr hash_join = Select(Proj(Var(0), 2), Proj(Var(0), 4),
                          Product(Input("R"), Input("R2")));
  return {
      {PassMutation::kDropFilterDuringReorder, "drop-filter",
       reorder_trigger},
      {PassMutation::kWrongGatherRemap, "wrong-gather-remap",
       reorder_trigger},
      {PassMutation::kHashJoinProbeKeyOutOfBounds, "probe-key-oob",
       hash_join},
      {PassMutation::kHashJoinWrongBuildKey, "wrong-build-key", hash_join},
      {PassMutation::kNoShiftOnBuildPushdown, "no-shift-build-pushdown",
       Select(Proj(Var(0), 3), ConstExpr(A("a1")),
              Product(Input("R"), Input("R2")))},
      {PassMutation::kUnionPushdownDropsChild, "union-drops-child",
       Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2")))},
      {PassMutation::kDupElimDropUnproven, "dup-elim-unproven",
       Eps(Input("S"))},
      {PassMutation::kConstFoldInverted, "const-fold-inverted",
       Select(Proj(Var(0), 1), ConstExpr(A("x")),
              Map(Tup({ConstExpr(A("x")), Proj(Var(0), 1)}),
                  Input("S")))},
      {PassMutation::kDeadColumnDropsLive, "dead-column-drops-live",
       ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                           Product(Input("R"), Input("R2"))),
                    {1})},
      {PassMutation::kCseKeyIgnoresStages, "cse-key-ignores-stages",
       Uplus(Map(Tup({ConstExpr(A("q"))}), Eps(Input("S"))),
             Eps(Input("S")))},
      {PassMutation::kUnionGatherDropsNestedCells,
       "union-gather-drops-nested-cells", NestedUnionTrigger()},
  };
}

TEST(MutationCorpusTest, EveryMutantIsRejectedWithZeroSilentEscapes) {
  Database db = CorpusDb();
  for (const MutationCase& c : MutationCorpus()) {
    {
      // Sanity: the unmutated pipeline handles the trigger cleanly.
      Status clean = ValidateTranslation(c.expr, db);
      EXPECT_TRUE(clean.ok()) << c.name << " (clean): " << clean;
    }
    MutationGuard guard(c.mutation);
    Status st = ValidateTranslation(c.expr, db);
    EXPECT_FALSE(st.ok()) << c.name << " escaped silently";
    if (!st.ok()) {
      bool named = st.message().find("ir verify") != std::string::npos ||
                   st.message().find("translation validation") !=
                       std::string::npos;
      EXPECT_TRUE(named) << c.name << ": " << st;
    }
  }
}

TEST(MutationCorpusTest, StructuralMutantsAreCaughtByTheVerifierAlone) {
  // These corrupt the plan shape itself, so plain lowering with
  // verification on — no execution, no observer — must already fail.
  Database db = CorpusDb();
  const std::vector<MutationCase> structural = {
      {PassMutation::kHashJoinProbeKeyOutOfBounds, "probe-key-oob",
       Select(Proj(Var(0), 2), Proj(Var(0), 4),
              Product(Input("R"), Input("R2")))},
      {PassMutation::kNoShiftOnBuildPushdown, "no-shift-build-pushdown",
       Select(Proj(Var(0), 3), ConstExpr(A("a1")),
              Product(Input("R"), Input("R2")))},
      {PassMutation::kUnionPushdownDropsChild, "union-drops-child",
       Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2")))},
      {PassMutation::kUnionGatherDropsNestedCells,
       "union-gather-drops-nested-cells", NestedUnionTrigger()},
  };
  for (const MutationCase& c : structural) {
    MutationGuard guard(c.mutation);
    LowerOptions options;
    options.verify = LowerOptions::Verify::kOn;
    auto plan = LowerToIr(c.expr, db, options);
    EXPECT_FALSE(plan.ok()) << c.name;
    if (!plan.ok()) {
      EXPECT_NE(plan.status().message().find("ir verify after pass"),
                std::string::npos)
          << c.name << ": " << plan.status();
    }
  }
}

TEST(MutationCorpusTest, NestedCellMutantIsCaughtOnlyByTheLayoutCheck) {
  // The mutated gather keeps both union inputs at arity 2; the row layout
  // sees that the last input's rows are [c, c] where the first input's
  // are [[a, b], c]. With per-pass verification off, the plan the mutated
  // pass leaves is taken from the observer.
  Database db = CorpusDb();
  MutationGuard guard(PassMutation::kUnionGatherDropsNestedCells);
  LowerOptions options;
  options.verify = LowerOptions::Verify::kOff;
  IrPlan plan;
  options.observer = [&plan](const std::string& pass, const IrPlan&,
                             const IrPlan& after) {
    if (pass == "union-pushdown" && plan.root == nullptr) {
      plan.root = after.root->Clone();
    }
    return Status::Ok();
  };
  // The next fact-driven pass derives the layout and fails on it too.
  auto lowered = LowerToIr(NestedUnionTrigger(), db, options);
  ASSERT_FALSE(lowered.ok());
  EXPECT_NE(lowered.status().message().find("disagree on row layout"),
            std::string::npos)
      << lowered.status();
  ASSERT_NE(plan.root, nullptr);
  Status verified = VerifyIr(plan);
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.message().find("disagree on row layout"),
            std::string::npos)
      << verified;
  EXPECT_FALSE(ir::ExecuteIr(plan, db).ok());
}

// ------------------------------------------------------------ fuzzing

TEST(ValidateTranslationFuzzTest, RandomPlansValidateAcrossThePipeline) {
  Schema schema{{"R", Type::Bag(Type::Tuple({Type::Atom()}))},
                {"S", Type::Bag(Type::Tuple({Type::Atom(), Type::Atom()}))}};
  ExprGenOptions gen;
  gen.max_bag_nesting = 1;
  gen.allow_powerset = false;
  gen.growth_rounds = 10;
  size_t lowered = 0;
  for (uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(0x5eedf00d + seed);
    FlatBagSpec spec1;
    spec1.arity = 1;
    spec1.num_atoms = 3;
    spec1.num_elements = 4;
    spec1.max_mult = 3;
    FlatBagSpec spec2 = spec1;
    spec2.arity = 2;
    Database db;
    ASSERT_TRUE(db.Put("R", RandomFlatBag(rng, spec1)).ok());
    ASSERT_TRUE(db.Put("S", RandomFlatBag(rng, spec2)).ok());
    auto e = RandomExpr(rng, schema, gen);
    ASSERT_TRUE(e.ok()) << e.status();
    Status st = ValidateTranslation(*e, db);
    if (st.ok()) {
      lowered++;
      continue;
    }
    // Plans outside the BALG¹ pipeline fragment legitimately fail to
    // lower (kUnsupported); verifier or validator rejections are bugs.
    EXPECT_NE(st.code(), StatusCode::kInternal)
        << "seed " << seed << " over " << e->ToString() << ": " << st;
  }
  // The generator must actually exercise the pipeline, not just produce
  // unsupported plans.
  EXPECT_GE(lowered, 50u);
}

// ------------------------------------------- lint: registry + W006/W007

TEST(LintRegistryTest, BuiltInsKeepRegistrationOrderAndReplaceInPlace) {
  const std::vector<std::string> want = {"W001", "W002", "W003", "W004",
                                         "W005", "W006", "W007", "E001"};
  auto codes = [] {
    std::vector<std::string> got;
    for (const LintRule& r : LintRuleRegistry::Global().rules()) {
      got.push_back(r.code);
    }
    return got;
  };
  EXPECT_EQ(codes(), want);
  // Re-registering an existing code replaces the rule in place: the order
  // is unchanged and the replacement is live.
  LintRule original;
  for (const LintRule& r : LintRuleRegistry::Global().rules()) {
    if (r.code == "W003") original = r;
  }
  LintRuleRegistry::Global().Register(
      {"W003", "replacement", [](const analysis::LintContext&,
                                 std::vector<LintDiag>*) {}});
  EXPECT_EQ(codes(), want);
  EXPECT_EQ(LintRuleRegistry::Global().rules()[2].description,
            "replacement");
  LintRuleRegistry::Global().Register(original);
  EXPECT_EQ(codes(), want);
}

TEST(LintTest, W006FiresOnDupElimOfDupElim) {
  Database db = CorpusDb();
  auto diags =
      RunLint(Eps(Eps(Input("S"))), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W006") {
      found = true;
      EXPECT_EQ(d.span, "dedup");
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W006FiresOnDupElimOfSetLikeInputOnlyWithExactFacts) {
  Database db = CorpusDb();
  auto exact =
      RunLint(Eps(Input("R")), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(exact.ok());
  bool found = false;
  for (const LintDiag& d : *exact) found |= d.code == "W006";
  EXPECT_TRUE(found);
  // Symbolic facts carry no instance, so dup-freedom of R is unprovable.
  auto symbolic =
      RunLint(Eps(Input("R")), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(symbolic.ok());
  for (const LintDiag& d : *symbolic) EXPECT_NE(d.code, "W006");
}

TEST(LintTest, W006SilentOnDupElimOfADupHeavyInput) {
  Database db = CorpusDb();
  auto diags = RunLint(Eps(Input("S")), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok());
  for (const LintDiag& d : *diags) EXPECT_NE(d.code, "W006");
}

TEST(LintTest, W007FiresOnAPartiallyReadProjection) {
  Database db = CorpusDb();
  // The inner MAP builds 2 columns; the outer MAP reads only column 1.
  Expr q = Map(Tup({Proj(Var(0), 1)}),
               Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}), Input("R")));
  auto diags = RunLint(q, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W007") {
      found = true;
      EXPECT_NE(d.message.find("dead columns: 2"), std::string::npos)
          << d.message;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W007SilentWhenEveryColumnIsReadOrTheRowEscapes) {
  Database db = CorpusDb();
  Expr full = Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}),
                  Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}), Input("R")));
  auto diags = RunLint(full, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok());
  for (const LintDiag& d : *diags) EXPECT_NE(d.code, "W007");
  // The raw row escaping into the body makes every column live.
  Expr escape = Map(Var(0), Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}),
                                Input("R")));
  auto escaped = RunLint(escape, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(escaped.ok());
  for (const LintDiag& d : *escaped) EXPECT_NE(d.code, "W007");
}

// ------------------------------- lint edge cases through derived ops

TEST(LintTest, W003FiresThroughDerivedEpsExpansions) {
  Database db = CorpusDb();
  Expr eps = EpsViaPowerset(Input("S"));
  auto diags = RunLint(Monus(eps, eps), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) found |= d.code == "W003";
  EXPECT_TRUE(found);
}

TEST(LintTest, W004FiresOnARewritableDerivedExpansion) {
  Database db = CorpusDb();
  // ∸ of the empty constant bag is removable (monus-empty), buried under
  // a derived expansion.
  Expr q = Monus(EpsViaPowerset(Input("S")), ConstBag(Bag()));
  auto diags = RunLint(q, db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W004") {
      found = true;
      EXPECT_NE(d.message.find("monus-empty"), std::string::npos)
          << d.message;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W005FiresPerOccurrenceOnCseSharedSubtrees) {
  Database db = CorpusDb();
  // The same physically shared MAP-over-powerset subtree used twice: the
  // rule reports both occurrences (spans are per pre-order path), even
  // though CSE will evaluate the subtree once.
  Expr shared = Map(Var(0), Pow(Input("S")));
  auto diags =
      RunLint(Uplus(shared, shared), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  size_t w005 = 0;
  for (const LintDiag& d : *diags) {
    if (d.code == "W005") {
      w005++;
      EXPECT_EQ(d.span, "uplus > map");
    }
  }
  EXPECT_EQ(w005, 2u);
}

}  // namespace
}  // namespace bagalg
