#ifndef BAGALG_ANALYSIS_LINT_H_
#define BAGALG_ANALYSIS_LINT_H_

/// \file lint.h
/// Query linting: structured diagnostics over the static cost analysis.
///
/// RunLint walks an expression together with its CostAnalysis and emits
/// LintDiags from an extensible rule registry. The built-in rules encode the
/// paper's tractability folklore as actionable warnings:
///
///   W001  powerset-on-unbounded-input — a P/P_b whose operand size is not
///         a static constant: the output is exponential in the data (§3).
///   W002  product-of-products — a × chain of polynomial degree >= the
///         configured threshold: polynomial but practically explosive.
///   W003  subtraction-annihilates — e ∸ e is the empty bag; almost surely
///         a typo for a different operand.
///   W004  rewrite-missed — the optimizer still finds applicable rewrites;
///         the query is running in unoptimized form.
///   W005  powerset-blocks-fusion — a materializing P/P_b feeds a streaming
///         operator, so the fused IR engine cannot lower the plan: `exec`
///         refuses it with kUnsupported and only `eval` runs it.
///   W006  redundant-dup-elim — ε applied to an expression that is already
///         provably duplicate-free (a set-like input or literal, another ε,
///         a powerset, or an operator that preserves dup-freedom). The IR
///         drop-redundant-dup-elim pass removes it at runtime; the query
///         text can drop it too.
///   W007  dead-columns-in-projection — a MAP builds a k-column tuple of
///         which the consuming operator reads only a strict subset. The IR
///         dead-column-elimination pass narrows it at runtime; the source
///         projection can be narrowed too.
///   E001  estimated-output-exceeds-budget — a subexpression's bound
///         provably exceeds the configured CostBudget (the admission check
///         of static_cost.h surfaced as a diagnostic).
///
/// New rules register through LintRuleRegistry (see docs/STATIC_ANALYSIS.md
/// for a worked example).
///
/// Ordering and stability contract (pinned by LintRegistryTest): rules run
/// in registration order, and the built-ins register in the code order
/// above (W001..W007 then E001); re-registering an existing code replaces
/// the rule *in place*, keeping its position. RunLint therefore returns
/// diagnostics grouped by rule in that stable order, and within one rule in
/// the pre-order position of the offending node — diagnostic order is part
/// of the API surface (scripts diff lint output) and must not change when
/// rules are re-registered.

#include <functional>
#include <string>
#include <vector>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/analysis/static_cost.h"
#include "src/util/result.h"

namespace bagalg::analysis {

/// One diagnostic.
struct LintDiag {
  enum class Severity { kWarning, kError };
  Severity severity = Severity::kWarning;
  /// Stable machine-readable code, e.g. "W001".
  std::string code;
  /// Operator path from the root to the offending node, e.g.
  /// "flat > sel > pow".
  std::string span;
  /// Human-readable explanation.
  std::string message;

  /// "W001 [flat > sel > pow] message".
  std::string ToString() const;
};

const char* LintSeverityName(LintDiag::Severity s);

/// Lint configuration.
struct LintOptions {
  /// W002 fires on products whose size bound has degree >= this.
  size_t product_degree_threshold = 3;
  /// When set, E001 checks every subexpression bound against the budget.
  const CostBudget* budget = nullptr;
  /// Increment the "lint.diags.<code>" metrics for emitted diagnostics.
  bool record_metrics = true;
};

/// Everything a rule can see: the expression (as a pre-order node/path
/// list), its cost analysis, and the session facts.
struct LintContext {
  /// Pre-order list of (node, operator path from root).
  struct NodeRef {
    Expr expr;
    std::string path;
  };
  std::vector<NodeRef> nodes;
  const Schema* schema = nullptr;
  const CostFacts* facts = nullptr;
  const CostAnalysis* analysis = nullptr;
  const LintOptions* options = nullptr;

  /// The analysis verdict for a node (nullptr if the analyzer skipped it).
  const NodeCost* CostOf(const Expr& e) const;
};

/// One lint rule: a stable code plus a check emitting diagnostics.
struct LintRule {
  std::string code;
  std::string description;
  std::function<void(const LintContext&, std::vector<LintDiag>*)> check;
};

/// Process-wide rule registry, seeded with the built-in rules above.
/// Register() is not thread-safe; call it during startup.
class LintRuleRegistry {
 public:
  static LintRuleRegistry& Global();

  /// Adds a rule. A rule with the same code replaces the existing one.
  void Register(LintRule rule);
  const std::vector<LintRule>& rules() const { return rules_; }

 private:
  std::vector<LintRule> rules_;
};

/// Runs every registered rule over `expr`. TypeError/NotFound if the
/// expression does not typecheck (the analysis runs first). Diagnostics come
/// back ordered by rule, then pre-order position.
Result<std::vector<LintDiag>> RunLint(const Expr& expr, const Schema& schema,
                                      const CostFacts& facts,
                                      const LintOptions& options = {});

}  // namespace bagalg::analysis

#endif  // BAGALG_ANALYSIS_LINT_H_
