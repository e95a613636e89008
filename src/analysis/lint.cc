#include "src/analysis/lint.h"

#include <algorithm>
#include <utility>

#include "src/algebra/rewrite.h"
#include "src/obs/metrics.h"

namespace bagalg::analysis {

const char* LintSeverityName(LintDiag::Severity s) {
  switch (s) {
    case LintDiag::Severity::kWarning:
      return "warning";
    case LintDiag::Severity::kError:
      return "error";
  }
  return "?";
}

std::string LintDiag::ToString() const {
  return code + " [" + span + "] " + message;
}

const NodeCost* LintContext::CostOf(const Expr& e) const {
  auto it = analysis->per_node.find(e.raw());
  return it == analysis->per_node.end() ? nullptr : &it->second;
}

namespace {

void CollectNodes(const Expr& expr, const std::string& prefix,
                  std::vector<LintContext::NodeRef>* out) {
  std::string path = prefix.empty()
                         ? std::string(ExprKindName(expr->kind))
                         : prefix + " > " + ExprKindName(expr->kind);
  out->push_back({expr, path});
  for (const Expr& c : expr->children) CollectNodes(c, path, out);
}

// ------------------------------------------------------------ built-ins

/// W001: powerset/powerbag applied to an operand whose size is not a static
/// constant — the classic §3 trap: output exponential in the data.
void CheckPowersetUnbounded(const LintContext& ctx,
                            std::vector<LintDiag>* out) {
  for (const auto& ref : ctx.nodes) {
    const ExprNode& n = ref.expr.node();
    if (n.kind != ExprKind::kPowerset && n.kind != ExprKind::kPowerbag) {
      continue;
    }
    const NodeCost* operand = ctx.CostOf(n.children[0]);
    if (operand == nullptr) continue;
    bool constant = operand->bound.IsFinite() && operand->degree() == 0;
    if (constant) continue;
    out->push_back(
        {LintDiag::Severity::kWarning, "W001", ref.path,
         std::string(ExprKindName(n.kind)) +
             " applied to an input-dependent bag (operand size " +
             operand->bound.ToString() +
             "): output is exponential in the data"});
  }
}

/// W002: a product whose size bound reaches the configured polynomial
/// degree — tractable on paper, explosive in practice.
void CheckProductDegree(const LintContext& ctx, std::vector<LintDiag>* out) {
  size_t threshold = ctx.options->product_degree_threshold;
  for (const auto& ref : ctx.nodes) {
    if (ref.expr->kind != ExprKind::kProduct) continue;
    const NodeCost* cost = ctx.CostOf(ref.expr);
    if (cost == nullptr || !cost->bound.IsFinite()) continue;
    size_t degree = cost->degree();
    if (degree < threshold) continue;
    // Flag only the outermost product of a chain: a parent product already
    // reports the full degree.
    out->push_back({LintDiag::Severity::kWarning, "W002", ref.path,
                    "product chain of degree " + std::to_string(degree) +
                        " (bound " + cost->bound.ToString() +
                        "); consider selecting before joining"});
  }
}

/// W003: e ∸ e annihilates to the empty bag.
void CheckSubtractionAnnihilates(const LintContext& ctx,
                                 std::vector<LintDiag>* out) {
  for (const auto& ref : ctx.nodes) {
    const ExprNode& n = ref.expr.node();
    if (n.kind != ExprKind::kSubtract) continue;
    if (!ExprEquals(n.children[0], n.children[1])) continue;
    out->push_back({LintDiag::Severity::kWarning, "W003", ref.path,
                    "monus of an expression with itself is always the "
                    "empty bag"});
  }
}

/// W004: the rewriter still finds applicable rules — the query text is not
/// in optimized form.
void CheckRewriteMissed(const LintContext& ctx, std::vector<LintDiag>* out) {
  if (ctx.nodes.empty()) return;
  const Expr& root = ctx.nodes.front().expr;
  std::map<std::string, size_t> applied;
  auto rewritten = Optimize(root, *ctx.schema, RewriteOptions{}, &applied);
  if (!rewritten.ok() || applied.empty()) return;
  std::string rules;
  size_t total = 0;
  for (const auto& [name, count] : applied) {
    if (!rules.empty()) rules += ", ";
    rules += name + "*" + std::to_string(count);
    total += count;
  }
  out->push_back({LintDiag::Severity::kWarning, "W004",
                  ctx.nodes.front().path,
                  "optimizer would apply " + std::to_string(total) +
                      " rewrite(s): " + rules});
}

/// W005: a materializing powerset/powerbag sits in pipeline position — as
/// the direct source of a streaming operator (MAP, σ, ×, ⊎, ε) — so the
/// fused IR engine cannot lower the plan: `exec` refuses it with
/// kUnsupported and only `eval` runs it (src/ir rejects P/P_b; see
/// docs/IR.md legality conditions).
void CheckPowersetBlocksFusion(const LintContext& ctx,
                               std::vector<LintDiag>* out) {
  auto is_power = [](const Expr& e) {
    return e->kind == ExprKind::kPowerset || e->kind == ExprKind::kPowerbag;
  };
  for (const auto& ref : ctx.nodes) {
    const ExprNode& n = ref.expr.node();
    std::vector<size_t> sources;
    switch (n.kind) {
      case ExprKind::kMap:
        sources = {1};
        break;
      case ExprKind::kSelect:
        sources = {2};
        break;
      case ExprKind::kProduct:
      case ExprKind::kAdditiveUnion:
        sources = {0, 1};
        break;
      case ExprKind::kDupElim:
        sources = {0};
        break;
      default:
        continue;
    }
    for (size_t i : sources) {
      if (i >= n.children.size() || !is_power(n.children[i])) continue;
      out->push_back(
          {LintDiag::Severity::kWarning, "W005", ref.path,
           std::string(ExprKindName(n.children[i]->kind)) +
               " feeds a streaming " + ExprKindName(n.kind) +
               ": the plan is fusion-ineligible, so exec refuses it as "
               "unsupported and only eval runs it; rewrite to push the " +
               ExprKindName(n.kind) +
               " below the powerset's operand, or hoist the powerset out "
               "of the pipeline"});
    }
  }
}

/// Conservative syntactic proof that `e` denotes a duplicate-free bag.
/// Mirrors (a fragment of) the IR fact lattice's dup_free bit at the
/// algebra level: ε and P are dup-free by construction; set-like inputs and
/// literals are dup-free by inspection; σ and monus never raise a
/// multiplicity above the source's; ∩ keeps the minimum of the two sides;
/// ∪ (max-union) of two dup-free bags caps every count at 1; MAP with an
/// identity body returns its source unchanged.
bool ProvablyDupFree(const LintContext& ctx, const Expr& e) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::kDupElim:
    case ExprKind::kPowerset:
      return true;
    case ExprKind::kInput: {
      if (ctx.facts == nullptr || ctx.facts->db == nullptr) return false;
      Result<Bag> bag = ctx.facts->db->Get(n.name);
      return bag.ok() && bag.value().IsSetLike();
    }
    case ExprKind::kConst:
      return n.literal.has_value() && n.literal->IsBag() &&
             n.literal->bag().IsSetLike();
    case ExprKind::kSelect:
      return ProvablyDupFree(ctx, n.children[2]);
    case ExprKind::kSubtract:
      return ProvablyDupFree(ctx, n.children[0]);
    case ExprKind::kIntersect:
      return ProvablyDupFree(ctx, n.children[0]) ||
             ProvablyDupFree(ctx, n.children[1]);
    case ExprKind::kMaxUnion:
      return ProvablyDupFree(ctx, n.children[0]) &&
             ProvablyDupFree(ctx, n.children[1]);
    case ExprKind::kMap: {
      const ExprNode& body = n.children[0].node();
      bool identity = body.kind == ExprKind::kVar && body.index == 0;
      return identity && ProvablyDupFree(ctx, n.children[1]);
    }
    default:
      return false;
  }
}

/// W006: ε over a provably duplicate-free operand is the identity.
void CheckRedundantDupElim(const LintContext& ctx,
                           std::vector<LintDiag>* out) {
  for (const auto& ref : ctx.nodes) {
    const ExprNode& n = ref.expr.node();
    if (n.kind != ExprKind::kDupElim) continue;
    if (!ProvablyDupFree(ctx, n.children[0])) continue;
    out->push_back(
        {LintDiag::Severity::kWarning, "W006", ref.path,
         "dup-elim of a provably duplicate-free operand (" +
             std::string(ExprKindName(n.children[0]->kind)) +
             ") is the identity; the IR drop-redundant-dup-elim pass "
             "removes it at runtime, and the query text can drop it too"});
  }
}

/// Collects the 1-based attributes `body` reads off the binder at de Bruijn
/// depth `depth` via α_i(Var(depth)). False when the row itself escapes
/// (Var(depth) in any other position) — the caller must assume every
/// column is live.
bool LambdaColumnRefs(const Expr& body, size_t depth,
                      std::vector<size_t>* refs) {
  const ExprNode& n = body.node();
  if (n.kind == ExprKind::kAttrProj) {
    const ExprNode& operand = n.children[0].node();
    if (operand.kind == ExprKind::kVar && operand.index == depth) {
      refs->push_back(n.index);
      return true;
    }
  }
  if (n.kind == ExprKind::kVar && n.index == depth) return false;
  for (size_t i = 0; i < n.children.size(); ++i) {
    size_t child_depth =
        depth + static_cast<size_t>(BindersIntroduced(n.kind, i));
    if (!LambdaColumnRefs(n.children[i], child_depth, refs)) return false;
  }
  return true;
}

/// W007: a MAP builds a k-column tuple of which the consuming MAP/σ reads
/// only a strict subset — the unread columns are dead in the query text.
void CheckDeadProjectionColumns(const LintContext& ctx,
                                std::vector<LintDiag>* out) {
  for (const auto& ref : ctx.nodes) {
    const ExprNode& n = ref.expr.node();
    // The consumer's read set over its source rows.
    std::vector<size_t> used;
    const Expr* source = nullptr;
    if (n.kind == ExprKind::kMap) {
      if (!LambdaColumnRefs(n.children[0], 0, &used)) continue;
      source = &n.children[1];
    } else if (n.kind == ExprKind::kSelect) {
      if (!LambdaColumnRefs(n.children[0], 0, &used) ||
          !LambdaColumnRefs(n.children[1], 0, &used)) {
        continue;
      }
      source = &n.children[2];
    } else {
      continue;
    }
    // The source must be a MAP whose body is a τ(...) literal projection.
    const ExprNode& producer = source->node();
    if (producer.kind != ExprKind::kMap) continue;
    const ExprNode& body = producer.children[0].node();
    if (body.kind != ExprKind::kTupling) continue;
    const size_t arity = body.children.size();
    std::vector<size_t> dead;
    for (size_t col = 1; col <= arity; ++col) {
      if (std::find(used.begin(), used.end(), col) == used.end()) {
        dead.push_back(col);
      }
    }
    if (dead.empty()) continue;
    std::string cols;
    for (size_t col : dead) {
      if (!cols.empty()) cols += ", ";
      cols += std::to_string(col);
    }
    out->push_back(
        {LintDiag::Severity::kWarning, "W007",
         ref.path + " > " + ExprKindName(producer.kind),
         "projection builds a " + std::to_string(arity) +
             "-column tuple but its consumer reads only " +
             std::to_string(arity - dead.size()) + " (dead columns: " +
             cols + "); the IR dead-column pass prunes them at runtime, "
             "and the source projection can be narrowed too"});
  }
}

/// E001: a subexpression's estimated output provably exceeds the budget.
void CheckBudgetExceeded(const LintContext& ctx, std::vector<LintDiag>* out) {
  const CostBudget* budget = ctx.options->budget;
  if (budget == nullptr) return;
  const BigNat& max = budget->max_estimated_size;
  for (const auto& ref : ctx.nodes) {
    const NodeCost* cost = ctx.CostOf(ref.expr);
    if (cost == nullptr) continue;
    if (!ExceedsBudget(cost->bound, max)) continue;
    out->push_back({LintDiag::Severity::kError, "E001", ref.path,
                    "estimated output size " + cost->bound.ToString() +
                        " exceeds budget " + max.ToString()});
    return;  // one offender is enough; deeper nodes repeat the story
  }
}

}  // namespace

LintRuleRegistry& LintRuleRegistry::Global() {
  static LintRuleRegistry* registry = [] {
    auto* r = new LintRuleRegistry();
    r->Register({"W001", "powerset on input-dependent bag",
                 CheckPowersetUnbounded});
    r->Register({"W002", "high-degree product chain", CheckProductDegree});
    r->Register({"W003", "subtraction annihilates",
                 CheckSubtractionAnnihilates});
    r->Register({"W004", "rewrite opportunities missed", CheckRewriteMissed});
    r->Register({"W005", "powerset blocks pipeline fusion",
                 CheckPowersetBlocksFusion});
    r->Register({"W006", "redundant dup-elim", CheckRedundantDupElim});
    r->Register({"W007", "dead columns in a projection",
                 CheckDeadProjectionColumns});
    r->Register({"E001", "estimated output exceeds budget",
                 CheckBudgetExceeded});
    return r;
  }();
  return *registry;
}

void LintRuleRegistry::Register(LintRule rule) {
  auto it = std::find_if(rules_.begin(), rules_.end(), [&](const LintRule& r) {
    return r.code == rule.code;
  });
  if (it != rules_.end()) {
    *it = std::move(rule);
  } else {
    rules_.push_back(std::move(rule));
  }
}

Result<std::vector<LintDiag>> RunLint(const Expr& expr, const Schema& schema,
                                      const CostFacts& facts,
                                      const LintOptions& options) {
  BAGALG_ASSIGN_OR_RETURN(CostAnalysis analysis,
                          AnalyzeCost(expr, schema, facts));
  LintContext ctx;
  CollectNodes(expr, "", &ctx.nodes);
  ctx.schema = &schema;
  ctx.facts = &facts;
  ctx.analysis = &analysis;
  ctx.options = &options;
  std::vector<LintDiag> diags;
  for (const LintRule& rule : LintRuleRegistry::Global().rules()) {
    rule.check(ctx, &diags);
  }
  if (options.record_metrics) {
    for (const LintDiag& d : diags) {
      obs::GlobalMetrics().GetCounter("lint.diags." + d.code)->Increment();
    }
  }
  return diags;
}

}  // namespace bagalg::analysis
