#ifndef BAGALG_ANALYSIS_STATIC_COST_H_
#define BAGALG_ANALYSIS_STATIC_COST_H_

/// \file static_cost.h
/// Static tractability and output-size analysis of BALG expressions.
///
/// The paper's central tractability result is *syntactic* (§3, Prop 3.2):
/// every query avoiding powerset/powerbag computes in polynomial time, while
/// a single P node can blow the output up hyperexponentially. This module
/// turns that dichotomy into a compiler-style pre-execution analysis: a
/// bottom-up abstract interpreter derives, for every subexpression,
///
///  (a) a tractability class — kPolynomial (no P/P_b below) or
///      kExponentialTower with the powerset-nesting height of §6;
///  (b) an upper bound on the output's total cardinality as a Polynomial in
///      the symbolic input size n, or a constant evaluated with BigNat
///      arithmetic when the analysis is bound to a concrete Database.
///
/// The bound is *sound*: bound >= the actual evaluated size whenever a bound
/// is produced at all (validated against the evaluator in
/// tests/static_cost_test.cc). On top of the analysis sit the lint rules of
/// lint.h and the CostBudget admission check the script runner applies
/// before running a query.

#include <map>
#include <string>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/analysis/polynomial.h"
#include "src/util/bignat.h"
#include "src/util/result.h"

namespace bagalg::analysis {

/// The §3 dichotomy, decided syntactically: an expression is kPolynomial iff
/// no powerset/powerbag occurs in its subtree.
enum class Tractability {
  kPolynomial,
  kExponentialTower,
};

const char* TractabilityName(Tractability t);

/// Upper bound on an output size, as a lattice over polynomials in the
/// symbolic input cardinality n (all coefficients non-negative).
struct SizeBound {
  enum class Kind {
    /// poly(n) is a sound upper bound (a constant polynomial in exact mode).
    kPoly,
    /// Finite but provably astronomical: at least 2^kAstronomicalBits.
    /// Produced by powerset on symbolic inputs and by exponent towers too
    /// large to materialize. Exceeds every expressible CostBudget.
    kAstronomical,
    /// No bound derivable (unbounded fixpoint iteration).
    kUnknown,
  };

  /// Bit-size threshold beyond which exact exponents are not materialized.
  static constexpr uint64_t kAstronomicalBits = 1u << 20;

  Kind kind = Kind::kPoly;
  Polynomial poly;  ///< Meaningful iff kind == kPoly.

  static SizeBound Finite(Polynomial p);
  static SizeBound Constant(BigNat c);
  static SizeBound Astronomical();
  static SizeBound Unknown();

  bool IsFinite() const { return kind == Kind::kPoly; }

  /// Lattice arithmetic (sound for upper bounds; unknown absorbs, except in
  /// Min where the other side remains a valid bound).
  static SizeBound Add(const SizeBound& a, const SizeBound& b);
  static SizeBound Mul(const SizeBound& a, const SizeBound& b);
  /// Coefficient-wise max: an upper bound for both (coefficients are >= 0).
  static SizeBound Join(const SizeBound& a, const SizeBound& b);
  /// Picks one of the two bounds, preferring the smaller; sound for results
  /// dominated by *both* operands (intersection).
  static SizeBound Min(const SizeBound& a, const SizeBound& b);
  /// 2^a, materialized exactly while the exponent stays below
  /// kAstronomicalBits and the operand is a constant; kAstronomical beyond.
  static SizeBound Exp2(const SizeBound& a);

  /// "<= 42", "<= 2n^2 + 1", "astronomical (>= 2^2^20)", or "unbounded".
  std::string ToString() const;
};

/// Per-node verdict of the analysis.
struct NodeCost {
  Tractability cls = Tractability::kPolynomial;
  /// Max powerset/powerbag nodes on a root-to-leaf path of this subtree
  /// (the i of BALG^k_i; 0 iff cls == kPolynomial).
  int tower_height = 0;
  /// Upper bound on the node's output size: total cardinality (duplicates
  /// included) for bag-denoting nodes, 1 for atoms/tuples.
  SizeBound bound;

  /// Degree of the size bound, when finite.
  size_t degree() const { return bound.poly.Degree(); }
};

/// Where the analyzer gets its per-input cardinality facts.
struct CostFacts {
  /// When non-null, every input's size is read off the bound instance
  /// (constant bounds, BigNat-evaluated). The pointer is borrowed; the
  /// Database must outlive the analysis call.
  const Database* db = nullptr;

  /// Symbolic mode: every input bag — and every bag nested inside an input
  /// value — is assumed to have total cardinality at most n, the single
  /// symbolic variable of the bound polynomials.
  static CostFacts Symbolic() { return CostFacts{}; }
  /// Exact mode, bound to a concrete instance. An input's shape is its
  /// total count (cached on the bag) over its element type; only element
  /// types that nest bags walk the entries, for the inner cardinalities.
  /// So on flat inputs the analysis costs a function of the query alone.
  static CostFacts Exact(const Database& db) { return CostFacts{&db}; }
};

/// The full analysis result.
struct CostAnalysis {
  /// The root expression's verdict.
  NodeCost root;
  /// Verdicts for every AST node, keyed by node identity (like the
  /// typecheck caches).
  std::map<const ExprNode*, NodeCost> per_node;
  /// AnalyzeExpr's type of every AST node, which the analysis runs on.
  /// `exec` lowers with it instead of typing the statement again.
  std::map<const ExprNode*, Type> node_types;
};

/// Runs the abstract interpreter. TypeError/NotFound if the expression does
/// not typecheck under `schema` (the analysis piggybacks on inferred types).
Result<CostAnalysis> AnalyzeCost(const Expr& expr, const Schema& schema,
                                 const CostFacts& facts);

// ---------------------------------------------------------------- budgets

/// An admission budget consulted before evaluation. The refusal path is a
/// typed Status (kBudgetExceeded), not an abort: server-shaped deployments
/// turn provably-astronomical queries away instead of dying on them.
struct CostBudget {
  /// Maximum admissible estimated output size (total cardinality) for the
  /// query and every subexpression. Zero means "no limit".
  BigNat max_estimated_size;
  /// kFail refuses over-budget queries; kWarn lets them run (the caller may
  /// surface the diagnostic instead).
  enum class OnExceed { kFail, kWarn };
  OnExceed on_exceed = OnExceed::kFail;
};

/// True iff `bound` provably exceeds a maximum size of `max` (zero = no
/// limit, admitting even astronomical bounds). Unknown bounds never exceed:
/// refusal requires proof. Symbolic (degree >= 1) polynomial bounds never
/// exceed either — they carry no data-level estimate.
bool ExceedsBudget(const SizeBound& bound, const BigNat& max);

/// Checks `expr` against the budget using `analysis`, an AnalyzeCost result
/// for `expr` (callers that already ran the analysis pass it in instead of
/// paying for a second one). Returns BudgetExceeded when some node's
/// estimated size exceeds the budget (or is astronomical) and the budget is
/// kFail; increments "budget.refusals" and "governor.preflight.refusals" on
/// every refusal, and the matching ".warnings" counters in kWarn mode.
/// Unknown bounds (unbounded fixpoints) are admitted.
Status CheckBudget(const Expr& expr, const CostAnalysis& analysis,
                   const CostBudget& budget);

/// The same check with exact facts from `db`. Expressions that fail to
/// typecheck are admitted — evaluation produces its own (better) error.
Status CheckBudget(const Expr& expr, const Database& db,
                   const CostBudget& budget);

// ----------------------------------------------------------- explain cost

/// EXPLAIN COST: the explain tree annotated per node with tractability
/// class, polynomial degree, and size bound, e.g.
///
///   prod : {{[U, U]}} [poly deg=2 size<=n^2]
///     input R : {{[U]}} [poly deg=1 size<=n]
///     input R : {{[U]}} [poly deg=1 size<=n]
///
/// Uses exact facts when `facts.db` is bound, symbolic n otherwise.
Result<std::string> ExplainCostExpr(const Expr& expr, const Schema& schema,
                                    const CostFacts& facts);

}  // namespace bagalg::analysis

#endif  // BAGALG_ANALYSIS_STATIC_COST_H_
