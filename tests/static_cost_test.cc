// Tests for the static cost analysis (src/analysis/static_cost.h) and the
// lint rules on top of it (src/analysis/lint.h).
//
// The load-bearing property is *soundness*: whenever the analyzer produces a
// finite bound, that bound dominates the actual evaluated output size — in
// exact mode directly, and in symbolic mode after substituting any n that
// dominates every input bag (nested bags included). The corpus below sweeps
// every operator, including the powerset tower and fixpoint widening.

#include "src/analysis/static_cost.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/algebra/builder.h"
#include "src/algebra/eval.h"
#include "src/algebra/typecheck.h"
#include "src/analysis/lint.h"
#include "src/lang/script.h"
#include "src/obs/metrics.h"

namespace bagalg {
namespace {

using analysis::AnalyzeCost;
using analysis::CheckBudget;
using analysis::CostAnalysis;
using analysis::CostBudget;
using analysis::CostFacts;
using analysis::ExplainCostExpr;
using analysis::LintDiag;
using analysis::LintOptions;
using analysis::LintRule;
using analysis::LintRuleRegistry;
using analysis::NodeCost;
using analysis::Polynomial;
using analysis::RunLint;
using analysis::SizeBound;
using analysis::Tractability;

Value A(const char* name) { return MakeAtom(name); }

/// R : {{[U, U]}} with 4 total rows (one duplicated), S : {{U}} with 3
/// atoms, N : {{[U, {{U}}]}} with nested bags of different sizes.
Database CorpusDb() {
  Database db;
  EXPECT_TRUE(db.Put("R", MakeBag({{MakeTuple({A("a"), A("b")}), 2},
                                   {MakeTuple({A("c"), A("d")}), 1},
                                   {MakeTuple({A("a"), A("d")}), 1}}))
                  .ok());
  EXPECT_TRUE(db.Put("S", MakeBagOf({A("x"), A("y"), A("z")})).ok());
  EXPECT_TRUE(
      db.Put("N",
             MakeBagOf({MakeTuple({A("a"), Value::FromBag(MakeBagOf(
                                               {A("x"), A("y")}))}),
                        MakeTuple({A("b"), Value::FromBag(MakeBagOf(
                                               {A("x"), A("y"), A("z")}))})}))
          .ok());
  return db;
}

/// Largest bag total reachable anywhere inside a value (the n that the
/// symbolic convention promises to dominate).
BigNat MaxBagCard(const Value& v) {
  BigNat best;
  if (v.IsTuple()) {
    for (const Value& f : v.fields()) {
      best = BigNat::Max(best, MaxBagCard(f));
    }
  } else if (v.IsBag()) {
    best = v.bag().TotalCount();
    for (const BagEntry& e : v.bag().entries()) {
      best = BigNat::Max(best, MaxBagCard(e.value));
    }
  }
  return best;
}

BigNat MaxInputCard(const Database& db) {
  BigNat best;
  for (const auto& [name, bag] : db.instances()) {
    best = BigNat::Max(best, MaxBagCard(Value::FromBag(bag)));
  }
  return best;
}

/// Actual "output size" in the bound's currency: total cardinality for
/// bags, 1 for atoms/tuples.
BigNat ActualSize(const Value& v) {
  return v.IsBag() ? v.bag().TotalCount() : BigNat(1);
}

/// Asserts bound >= actual for a finite bound; unknown bounds admit
/// anything; astronomical bounds are vacuously sound for evaluable inputs.
void ExpectBoundDominates(const SizeBound& bound, const BigNat& n,
                          const BigNat& actual, const std::string& what) {
  if (!bound.IsFinite()) return;
  BigInt value = bound.poly.Eval(n);
  ASSERT_FALSE(value.IsNegative()) << what;
  EXPECT_GE(value.magnitude(), actual)
      << what << ": bound " << bound.ToString() << " at n=" << n.ToString()
      << " vs actual " << actual.ToString();
}

std::vector<Expr> Corpus() {
  Expr r = Input("R");
  Expr s = Input("S");
  Expr nn = Input("N");
  Expr first = Tup({Proj(Var(0), 1)});
  return {
      r,
      s,
      Uplus(r, r),
      Monus(r, Uplus(r, r)),
      Monus(Uplus(r, r), r),
      Umax(r, Uplus(r, r)),
      Inter(r, Uplus(r, r)),
      Product(r, r),
      Product(Product(r, r), r),
      Map(first, r),
      Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), r),
      Select(Proj(Var(0), 1), Proj(Var(0), 2), r),
      Eps(Uplus(r, r)),
      Beta(ConstExpr(A("a"))),
      Tup({ConstExpr(A("a")), ConstExpr(A("b"))}),
      Pow(s),
      Powbag(s),
      Destroy(Pow(s)),
      Destroy(Powbag(s)),
      Pow(Pow(s)),
      Destroy(Map(Beta(Var(0)), r)),
      NestExpr(r, {2}),
      UnnestExpr(NestExpr(r, {2}), 2),
      UnnestExpr(nn, 2),
      ProjectAttrs(r, {1}),
      Ifp(Var(0), r),
      BoundedIfp(Var(0), r, Uplus(r, r)),
      BoundedIfp(Map(Tup({Proj(Var(0), 1), Proj(Var(0), 1)}),
                     Select(Proj(Var(0), 1), Proj(Var(0), 1), Var(0))),
                 r, Uplus(r, r)),
  };
}

TEST(StaticCostTest, ExactBoundsDominateActualSizes) {
  Database db = CorpusDb();
  Evaluator ev(Limits::Default());
  for (const Expr& e : Corpus()) {
    auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Exact(db));
    ASSERT_TRUE(analysis.ok()) << e.ToString() << ": "
                               << analysis.status().ToString();
    auto v = ev.Eval(e, db);
    ASSERT_TRUE(v.ok()) << e.ToString();
    // Exact-mode finite bounds are constants; evaluate at n=0.
    if (analysis->root.bound.IsFinite()) {
      EXPECT_EQ(analysis->root.degree(), 0u) << e.ToString();
    }
    ExpectBoundDominates(analysis->root.bound, BigNat(0), ActualSize(*v),
                         e.ToString());
  }
}

TEST(StaticCostTest, SymbolicBoundsDominateActualSizesAtInputCardinality) {
  Database db = CorpusDb();
  BigNat n = MaxInputCard(db);
  Evaluator ev(Limits::Default());
  for (const Expr& e : Corpus()) {
    auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Symbolic());
    ASSERT_TRUE(analysis.ok()) << e.ToString();
    auto v = ev.Eval(e, db);
    ASSERT_TRUE(v.ok()) << e.ToString();
    ExpectBoundDominates(analysis->root.bound, n, ActualSize(*v),
                         e.ToString());
  }
}

TEST(StaticCostTest, PowersetFreeExpressionsArePolynomialWithFiniteDegree) {
  Database db = CorpusDb();
  for (const Expr& e : Corpus()) {
    auto typed = AnalyzeExpr(e, db.schema());
    ASSERT_TRUE(typed.ok());
    auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Symbolic());
    ASSERT_TRUE(analysis.ok());
    // The dichotomy is syntactic: class and height mirror power nesting.
    EXPECT_EQ(analysis->root.tower_height, typed->power_nesting)
        << e.ToString();
    if (typed->power_nesting == 0) {
      EXPECT_EQ(analysis->root.cls, Tractability::kPolynomial)
          << e.ToString();
      // Powerset-free and fixpoint-free implies a finite polynomial bound.
      if (!typed->uses_fixpoint) {
        EXPECT_TRUE(analysis->root.bound.IsFinite()) << e.ToString();
      }
    } else {
      EXPECT_EQ(analysis->root.cls, Tractability::kExponentialTower)
          << e.ToString();
    }
  }
}

TEST(StaticCostTest, PerNodeVerdictsCoverEveryNode) {
  Database db = CorpusDb();
  Expr e = Destroy(Map(Beta(Tup({Proj(Var(0), 1)})), Input("R")));
  auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->per_node.size(), ExprSize(e));
}

TEST(StaticCostTest, KnownDegrees) {
  Database db = CorpusDb();
  Expr r = Input("R");
  struct Case {
    Expr expr;
    size_t degree;
  };
  std::vector<Case> cases = {
      {r, 1},
      {Product(r, r), 2},
      {Product(Product(r, r), r), 3},
      {Map(Tup({Proj(Var(0), 1)}), Product(r, r)), 2},
      // δ(MAP β) is the identity: n singleton bags flatten back to n rows.
      {Destroy(Map(Beta(Var(0)), r)), 1},
      {Destroy(Map(Beta(Var(0)), Product(r, r))), 2},
      {UnnestExpr(NestExpr(r, {2}), 2), 2},
      {Beta(ConstExpr(A("a"))), 0},
  };
  for (const auto& c : cases) {
    auto analysis = AnalyzeCost(c.expr, db.schema(), CostFacts::Symbolic());
    ASSERT_TRUE(analysis.ok()) << c.expr.ToString();
    ASSERT_TRUE(analysis->root.bound.IsFinite()) << c.expr.ToString();
    EXPECT_EQ(analysis->root.degree(), c.degree) << c.expr.ToString();
  }
}

TEST(StaticCostTest, MapPreservesCardinalityExactly) {
  Database db = CorpusDb();
  Expr e = Map(Tup({Proj(Var(0), 1)}), Input("R"));
  auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->root.bound.IsFinite());
  EXPECT_EQ(analysis->root.bound.poly.ConstantTerm(), BigInt(4));
}

TEST(StaticCostTest, PowersetBoundsAreExactlyTwoPowCardinality) {
  Database db = CorpusDb();
  // |P_b(S)| = 2^|S| = 8 for the 3-atom set-like S; |P(S)| = 8 as well.
  for (const Expr& e : {Pow(Input("S")), Powbag(Input("S"))}) {
    auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Exact(db));
    ASSERT_TRUE(analysis.ok());
    ASSERT_TRUE(analysis->root.bound.IsFinite());
    EXPECT_EQ(analysis->root.bound.poly.ConstantTerm(), BigInt(8));
  }
  // Symbolically the same expressions are astronomical.
  for (const Expr& e : {Pow(Input("S")), Powbag(Input("S"))}) {
    auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Symbolic());
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(analysis->root.bound.kind, SizeBound::Kind::kAstronomical);
    EXPECT_EQ(analysis->root.tower_height, 1);
  }
}

TEST(StaticCostTest, TowerHeightCountsNestedPowersets) {
  Database db = CorpusDb();
  auto analysis =
      AnalyzeCost(Pow(Pow(Input("S"))), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->root.tower_height, 2);
  EXPECT_EQ(analysis->root.cls, Tractability::kExponentialTower);
}

TEST(StaticCostTest, UnboundedFixpointHasUnknownBound) {
  Database db = CorpusDb();
  auto analysis =
      AnalyzeCost(Ifp(Var(0), Input("R")), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->root.bound.kind, SizeBound::Kind::kUnknown);
  EXPECT_EQ(analysis->root.cls, Tractability::kPolynomial);
}

TEST(StaticCostTest, BoundedFixpointInheritsTheBoundsShape) {
  Database db = CorpusDb();
  Expr e = BoundedIfp(Var(0), Input("R"), Uplus(Input("R"), Input("R")));
  auto analysis = AnalyzeCost(e, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->root.bound.IsFinite());
  EXPECT_EQ(analysis->root.bound.poly.ConstantTerm(), BigInt(8));
}

TEST(StaticCostTest, IllTypedExpressionsAreRejected) {
  Database db = CorpusDb();
  EXPECT_EQ(AnalyzeCost(Input("Z"), db.schema(), CostFacts::Symbolic())
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(AnalyzeCost(Proj(Input("R"), 1), db.schema(),
                        CostFacts::Symbolic())
                .status()
                .code(),
            StatusCode::kTypeError);
}

// ------------------------------------------------------------- SizeBound

TEST(SizeBoundTest, LatticeArithmetic) {
  SizeBound two = SizeBound::Constant(BigNat(2));
  SizeBound n = SizeBound::Finite(Polynomial::Identity());
  SizeBound astro = SizeBound::Astronomical();
  SizeBound unknown = SizeBound::Unknown();

  EXPECT_EQ(SizeBound::Add(two, n).poly.Degree(), 1u);
  EXPECT_EQ(SizeBound::Mul(n, n).poly.Degree(), 2u);
  EXPECT_EQ(SizeBound::Add(n, astro).kind, SizeBound::Kind::kAstronomical);
  EXPECT_EQ(SizeBound::Add(n, unknown).kind, SizeBound::Kind::kUnknown);
  // A statically-empty factor annihilates even unbounded ones.
  SizeBound zero = SizeBound::Constant(BigNat(0));
  EXPECT_TRUE(SizeBound::Mul(zero, astro).IsFinite());
  EXPECT_TRUE(SizeBound::Mul(unknown, zero).IsFinite());
  // Min prefers the informative side.
  EXPECT_TRUE(SizeBound::Min(astro, two).IsFinite());
  EXPECT_TRUE(SizeBound::Min(unknown, n).IsFinite());
  EXPECT_EQ(SizeBound::Min(n, two).poly.Degree(), 0u);
  // Join is coefficient-wise max.
  SizeBound j = SizeBound::Join(SizeBound::Finite(Polynomial::Identity()),
                                SizeBound::Constant(BigNat(5)));
  ASSERT_TRUE(j.IsFinite());
  EXPECT_EQ(j.poly.ConstantTerm(), BigInt(5));
  EXPECT_EQ(j.poly.Degree(), 1u);
}

TEST(SizeBoundTest, Exp2MaterializesSmallConstantsOnly) {
  EXPECT_EQ(SizeBound::Exp2(SizeBound::Constant(BigNat(10)))
                .poly.ConstantTerm(),
            BigInt(1024));
  EXPECT_EQ(SizeBound::Exp2(SizeBound::Finite(Polynomial::Identity())).kind,
            SizeBound::Kind::kAstronomical);
  EXPECT_EQ(
      SizeBound::Exp2(SizeBound::Constant(BigNat::TwoPow(40))).kind,
      SizeBound::Kind::kAstronomical);
  EXPECT_EQ(SizeBound::Exp2(SizeBound::Unknown()).kind,
            SizeBound::Kind::kUnknown);
}

// ------------------------------------------------------------------ lint

TEST(LintTest, W001FiresOnPowersetOfInputDependentBag) {
  Database db = CorpusDb();
  auto diags = RunLint(Pow(Input("S")), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok());
  ASSERT_EQ(diags->size(), 1u);
  EXPECT_EQ((*diags)[0].code, "W001");
  EXPECT_EQ((*diags)[0].span, "pow");
  EXPECT_EQ((*diags)[0].severity, LintDiag::Severity::kWarning);
}

TEST(LintTest, W001SilentOnConstantOperand) {
  Database db = CorpusDb();
  Expr constant_bag = ConstBag(MakeBagOf({A("x"), A("y")}));
  auto diags = RunLint(Pow(constant_bag), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok());
  for (const LintDiag& d : *diags) EXPECT_NE(d.code, "W001");
}

TEST(LintTest, W002FiresAtTheDegreeThreshold) {
  Database db = CorpusDb();
  Expr r = Input("R");
  Expr cube = Product(Product(r, r), r);
  auto diags = RunLint(cube, db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok());
  ASSERT_EQ(diags->size(), 1u);
  EXPECT_EQ((*diags)[0].code, "W002");
  EXPECT_EQ((*diags)[0].span, "prod");
  // Degree 2 stays below the default threshold of 3.
  auto square = RunLint(Product(r, r), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(square.ok());
  EXPECT_TRUE(square->empty());
  // A lower threshold flags it.
  LintOptions strict;
  strict.product_degree_threshold = 2;
  auto strict_diags =
      RunLint(Product(r, r), db.schema(), CostFacts::Symbolic(), strict);
  ASSERT_TRUE(strict_diags.ok());
  ASSERT_EQ(strict_diags->size(), 1u);
  EXPECT_EQ((*strict_diags)[0].code, "W002");
}

TEST(LintTest, W003FiresOnSelfSubtraction) {
  Database db = CorpusDb();
  Expr r = Input("R");
  auto diags = RunLint(Uplus(Monus(r, r), r), db.schema(),
                       CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok());
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W003") {
      found = true;
      EXPECT_EQ(d.span, "uplus > monus");
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W004FiresWhenTheOptimizerWouldRewrite) {
  Database db = CorpusDb();
  Expr r = Input("R");
  // e ∩ e is an idempotence-rule target.
  auto diags = RunLint(Inter(r, r), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok());
  bool found = false;
  for (const LintDiag& d : *diags) found |= d.code == "W004";
  EXPECT_TRUE(found);
  // A plain input has nothing to rewrite.
  auto clean = RunLint(r, db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(clean.ok());
  for (const LintDiag& d : *clean) EXPECT_NE(d.code, "W004");
}

TEST(LintTest, E001FiresWhenBudgetProvablyExceeded) {
  Database db = CorpusDb();
  CostBudget budget;
  budget.max_estimated_size = BigNat(5);
  LintOptions options;
  options.budget = &budget;
  auto diags = RunLint(Product(Input("R"), Input("R")), db.schema(),
                       CostFacts::Exact(db), options);
  ASSERT_TRUE(diags.ok());
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "E001") {
      found = true;
      EXPECT_EQ(d.severity, LintDiag::Severity::kError);
    }
  }
  EXPECT_TRUE(found);
  // Without a budget the same query lints clean of E001.
  auto no_budget = RunLint(Product(Input("R"), Input("R")), db.schema(),
                           CostFacts::Exact(db));
  ASSERT_TRUE(no_budget.ok());
  for (const LintDiag& d : *no_budget) EXPECT_NE(d.code, "E001");
}

TEST(LintTest, DiagMetricsAreRecorded) {
  Database db = CorpusDb();
  uint64_t before =
      obs::GlobalMetrics().GetCounter("lint.diags.W001")->value();
  ASSERT_TRUE(
      RunLint(Pow(Input("S")), db.schema(), CostFacts::Symbolic()).ok());
  EXPECT_EQ(obs::GlobalMetrics().GetCounter("lint.diags.W001")->value(),
            before + 1);
}

TEST(LintTest, RegistryAcceptsCustomRules) {
  Database db = CorpusDb();
  LintRule rule;
  rule.code = "X001";
  rule.description = "flags every dedup for testing";
  rule.check = [](const analysis::LintContext& ctx,
                  std::vector<LintDiag>* out) {
    for (const auto& ref : ctx.nodes) {
      if (ref.expr->kind == ExprKind::kDupElim) {
        out->push_back({LintDiag::Severity::kWarning, "X001", ref.path,
                        "dedup spotted"});
      }
    }
  };
  LintRuleRegistry::Global().Register(rule);
  auto diags = RunLint(Eps(Input("R")), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok());
  bool found = false;
  for (const LintDiag& d : *diags) found |= d.code == "X001";
  EXPECT_TRUE(found);
  // Re-registering the same code replaces, not duplicates.
  size_t rules_before = LintRuleRegistry::Global().rules().size();
  LintRuleRegistry::Global().Register(rule);
  EXPECT_EQ(LintRuleRegistry::Global().rules().size(), rules_before);
  // Neutralize for any later test in this process.
  rule.check = [](const analysis::LintContext&, std::vector<LintDiag>*) {};
  LintRuleRegistry::Global().Register(rule);
}

// ---------------------------------------------------------------- budget

TEST(BudgetTest, RefusesOverBudgetQueriesWithTypedStatus) {
  Database db = CorpusDb();
  CostBudget budget;
  budget.max_estimated_size = BigNat(5);
  uint64_t before =
      obs::GlobalMetrics().GetCounter("budget.refusals")->value();
  Status st = CheckBudget(Product(Input("R"), Input("R")), db, budget);
  EXPECT_EQ(st.code(), StatusCode::kBudgetExceeded);
  EXPECT_NE(st.message().find("exceeds budget 5"), std::string::npos);
  EXPECT_EQ(obs::GlobalMetrics().GetCounter("budget.refusals")->value(),
            before + 1);
}

TEST(BudgetTest, AdmitsWithinBudgetAndWarnMode) {
  Database db = CorpusDb();
  CostBudget budget;
  budget.max_estimated_size = BigNat(100);
  EXPECT_TRUE(CheckBudget(Product(Input("R"), Input("R")), db, budget).ok());
  budget.max_estimated_size = BigNat(5);
  budget.on_exceed = CostBudget::OnExceed::kWarn;
  uint64_t refusals_before =
      obs::GlobalMetrics().GetCounter("budget.refusals")->value();
  EXPECT_TRUE(CheckBudget(Product(Input("R"), Input("R")), db, budget).ok());
  EXPECT_EQ(obs::GlobalMetrics().GetCounter("budget.refusals")->value(),
            refusals_before);
}

TEST(BudgetTest, AdmitsUnknownBoundsAndIllTypedQueries) {
  Database db = CorpusDb();
  CostBudget budget;
  // Large enough for the inputs themselves (every subexpression is
  // checked); the fixpoint's own bound is unknown and must be admitted.
  budget.max_estimated_size = BigNat(10);
  EXPECT_TRUE(CheckBudget(Ifp(Var(0), Input("R")), db, budget).ok());
  // Ill-typed: admitted so evaluation reports the real error.
  budget.max_estimated_size = BigNat(1);
  EXPECT_TRUE(CheckBudget(Input("Z"), db, budget).ok());
}

TEST(BudgetTest, ZeroBudgetMeansNoLimit) {
  Database db = CorpusDb();
  CostBudget budget;  // max_estimated_size defaults to 0
  EXPECT_TRUE(CheckBudget(Pow(Input("S")), db, budget).ok());
}

TEST(BudgetTest, EvalRefusesBeforeEvaluating) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b]*2, [c, d], [a, d]}}").ok());
  ASSERT_TRUE(runner.RunLine("\\budget 5").ok());
  auto refused = runner.RunLine("eval prod(R, R)");  // estimate 16 > 5
  EXPECT_EQ(refused.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_NE(refused.status().message().find("exceeds budget 5"),
            std::string::npos);
  auto analyze_refused = runner.RunLine("explain analyze prod(R, R)");
  EXPECT_EQ(analyze_refused.status().code(), StatusCode::kBudgetExceeded);
  // Nothing ran: the refusal happens before any operator application.
  EXPECT_EQ(runner.evaluator().stats().steps, 0u);
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, "budget-refused");
  EXPECT_EQ(tail[0].steps, 0u);
  // Within budget still evaluates.
  EXPECT_TRUE(runner.RunLine("eval R").ok());
  // Clearing the budget restores unguarded evaluation.
  ASSERT_TRUE(runner.RunLine("\\budget off").ok());
  EXPECT_TRUE(runner.RunLine("eval prod(R, R)").ok());
}

TEST(BudgetTest, ExecRefusesBeforeRunning) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b]*2, [c, d], [a, d]}}").ok());
  ASSERT_TRUE(runner.RunLine("\\budget 5").ok());
  obs::Counter* pipelines = obs::GlobalMetrics().GetCounter("ir.pipelines");
  const uint64_t pipelines_before = pipelines->value();
  auto refused = runner.RunLine("exec prod(R, R)");
  EXPECT_EQ(refused.status().code(), StatusCode::kBudgetExceeded);
  // The IR never ran a pipeline.
  EXPECT_EQ(pipelines->value(), pipelines_before);
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].engine, "ir");
  EXPECT_EQ(tail[0].outcome, "budget-refused");
  ASSERT_TRUE(runner.RunLine("\\budget off").ok());
  EXPECT_TRUE(runner.RunLine("exec prod(R, R)").ok());
  EXPECT_GT(pipelines->value(), pipelines_before);
}

// ---------------------------------------------------------- explain cost

TEST(ExplainCostTest, AnnotatesNodesWithClassDegreeAndBound) {
  Database db = CorpusDb();
  auto plan = ExplainCostExpr(Product(Input("R"), Input("R")), db.schema(),
                              CostFacts::Symbolic());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("[poly deg=2 size<=n^2]"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("[poly deg=1 size<=n]"), std::string::npos) << *plan;
}

TEST(ExplainCostTest, ExactFactsAddEstimates) {
  Database db = CorpusDb();
  auto plan = ExplainCostExpr(Product(Input("R"), Input("R")), db.schema(),
                              CostFacts::Exact(db));
  ASSERT_TRUE(plan.ok());
  // Symbolic verdict plus the concrete estimate from the bound instance.
  EXPECT_NE(plan->find("deg=2"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("est<=16"), std::string::npos) << *plan;
}

TEST(ExplainCostTest, TowersAreMarked) {
  Database db = CorpusDb();
  auto plan =
      ExplainCostExpr(Pow(Input("S")), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("[tower h=1 size=astronomical]"), std::string::npos)
      << *plan;
}

/// A session holding flat inputs (P: pairs, B: a count past 2^64, E:
/// empty) and bag-of-bags inputs (N, D) for the exact-facts pins below.
void LoadExactFactsInputs(lang::ScriptRunner& runner) {
  for (const char* let : {"let P = {{[a, b]*2, [c, d], [a, d]}}",
                          "let B = {{x*18446744073709551621, y*3}}",
                          "let E = {{ }}",
                          "let N = {{[a, {{x, y}}], [b, {{x, y, z}}]}}",
                          "let D = {{ {{x}}*2, {{x, y, z}}*3 }}"}) {
    ASSERT_TRUE(runner.RunLine(let).ok()) << let;
  }
}

TEST(ExplainCostTest, ExactBoundsOfFlatInputsArePinned) {
  // Flat inputs take their exact shape from the element type and the
  // bag's total count. These are the per-node estimates a walk over every
  // entry gives.
  lang::ScriptRunner runner;
  LoadExactFactsInputs(runner);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"explain cost map(x -> tup(proj(2, x), proj(1, x)), "
       "sel(x -> proj(1, x) == proj(4, x), prod(P, P)))",
       "map : {{[U, U]}} [poly deg=2 size<=n^2 est<=16]\n"
       "  body:\n"
       "    tup : [U, U] [poly deg=0 size<=1 est<=1]\n"
       "      proj #2 : U [poly deg=0 size<=1 est<=1]\n"
       "        var v0 : [U, U, U, U] [poly deg=0 size<=1 est<=1]\n"
       "      proj #1 : U [poly deg=0 size<=1 est<=1]\n"
       "        var v0 : [U, U, U, U] [poly deg=0 size<=1 est<=1]\n"
       "  sel : {{[U, U, U, U]}} [poly deg=2 size<=n^2 est<=16]\n"
       "    lhs:\n"
       "      proj #1 : U [poly deg=0 size<=1 est<=1]\n"
       "        var v0 : [U, U, U, U] [poly deg=0 size<=1 est<=1]\n"
       "    rhs:\n"
       "      proj #4 : U [poly deg=0 size<=1 est<=1]\n"
       "        var v0 : [U, U, U, U] [poly deg=0 size<=1 est<=1]\n"
       "    prod : {{[U, U, U, U]}} [poly deg=2 size<=n^2 est<=16]\n"
       "      input P : {{[U, U]}} [poly deg=1 size<=n est<=4]\n"
       "      input P : {{[U, U]}} [poly deg=1 size<=n est<=4]"},
      {"explain cost monus(uplus(B, B), dedup(B))",
       "monus : {{U}} [poly deg=1 size<=2n est<=2^65+]\n"
       "  uplus : {{U}} [poly deg=1 size<=2n est<=2^65+]\n"
       "    input B : {{U}} [poly deg=1 size<=n est<=2^64+]\n"
       "    input B : {{U}} [poly deg=1 size<=n est<=2^64+]\n"
       "  dedup : {{U}} [poly deg=1 size<=n est<=2^64+]\n"
       "    input B : {{U}} [poly deg=1 size<=n est<=2^64+]"},
      {"explain cost inter(B, E)",
       "inter : {{U}} [poly deg=1 size<=n est<=0]\n"
       "  input B : {{U}} [poly deg=1 size<=n est<=2^64+]\n"
       "  input E : {{_}} [poly deg=1 size<=n est<=0]"},
      {"explain cost flat(map(x -> bag(x), B))",
       "flat : {{U}} [poly deg=1 size<=n est<=2^64+]\n"
       "  map : {{{{U}}}} [poly deg=1 size<=n est<=2^64+]\n"
       "    body:\n"
       "      bag : {{U}} [poly deg=0 size<=1 est<=1]\n"
       "        var v0 : U [poly deg=0 size<=1 est<=1]\n"
       "    input B : {{U}} [poly deg=1 size<=n est<=2^64+]"},
  };
  for (const auto& [line, want] : cases) {
    auto out = runner.RunLine(line);
    ASSERT_TRUE(out.ok()) << line << ": " << out.status();
    EXPECT_EQ(*out, want) << line;
  }
}

TEST(ExplainCostTest, ExactCountsPastTwoToThe64StayExact) {
  Database db;
  Bag::Builder builder;
  builder.Add(A("x"), BigNat::TwoPow(64) + BigNat(5));
  builder.Add(A("y"), BigNat(3));
  auto b = std::move(builder).Build();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(db.Put("B", *b).ok());
  Expr q = Uplus(Input("B"), Input("B"));
  auto analysis = AnalyzeCost(q, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  const BigNat total = BigNat::TwoPow(64) + BigNat(8);
  EXPECT_EQ(analysis->root.bound.poly.ConstantTerm(), BigInt(total + total));
  const NodeCost& input = analysis->per_node.at(q->children[0].raw());
  EXPECT_EQ(input.bound.poly.ConstantTerm(), BigInt(total));
}

TEST(ExplainCostTest, BagOfBagsInputsKeepTheirInnerCardinalities) {
  // Element types that nest bags still walk their entries: the inner
  // totals (at most 3 here) bound δ and unnest, not the symbolic n.
  lang::ScriptRunner runner;
  LoadExactFactsInputs(runner);
  auto flat = runner.RunLine("explain cost flat(D)");
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(*flat,
            "flat : {{U}} [poly deg=2 size<=n^2 est<=15]\n"
            "  input D : {{{{U}}}} [poly deg=1 size<=n est<=5]");
  auto unnest = runner.RunLine("explain cost unnest([2], N)");
  ASSERT_TRUE(unnest.ok()) << unnest.status();
  EXPECT_EQ(*unnest,
            "unnest attrs=[2] : {{[U, U]}} [poly deg=2 size<=n^2 est<=6]\n"
            "  input N : {{[U, {{U}}]}} [poly deg=1 size<=n est<=2]");
}

// ------------------------------------------------------------------ REPL

TEST(ScriptLintTest, LintCommandPrintsDiagnostics) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("schema S : {{U}}").ok());
  auto out = runner.RunLine("\\lint pow(S)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("W001"), std::string::npos) << *out;
  auto clean = runner.RunLine("\\lint S");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, "no lint diagnostics");
}

TEST(ScriptLintTest, ExplainCostCommand) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b], [c, d]}}").ok());
  auto out = runner.RunLine("explain cost prod(R, R)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("[poly"), std::string::npos) << *out;
  EXPECT_NE(out->find("est<="), std::string::npos) << *out;
}

TEST(ScriptLintTest, BudgetCommandGuardsEvalAndExec) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b], [c, d], [a, d]}}").ok());
  ASSERT_TRUE(runner.RunLine("\\budget 5").ok());
  auto refused = runner.RunLine("count prod(R, R)");
  EXPECT_EQ(refused.status().code(), StatusCode::kBudgetExceeded);
  auto exec_refused = runner.RunLine("exec prod(R, R)");
  EXPECT_EQ(exec_refused.status().code(), StatusCode::kBudgetExceeded);
  // Warn mode lets it through.
  ASSERT_TRUE(runner.RunLine("\\budget 5 warn").ok());
  EXPECT_TRUE(runner.RunLine("count prod(R, R)").ok());
  // Off clears the guard.
  ASSERT_TRUE(runner.RunLine("\\budget off").ok());
  EXPECT_TRUE(runner.RunLine("count prod(R, R)").ok());
  EXPECT_FALSE(runner.budget().has_value());
}

}  // namespace
}  // namespace bagalg
