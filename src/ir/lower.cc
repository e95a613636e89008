#include "src/ir/lower.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/algebra/typecheck.h"
#include "src/analysis/static_cost.h"
#include "src/ir/dataflow.h"
#include "src/ir/passes.h"
#include "src/ir/verify.h"

namespace bagalg::ir {

namespace {

using NodePtr = std::unique_ptr<IrNode>;

/// Arity of the tuples in a bag type; 0 when the type is not a tuple bag.
size_t TupleArityOf(const Type& bag_type) {
  if (!bag_type.IsBag()) return 0;
  const Type& element = bag_type.element();
  if (!element.IsTuple()) return 0;
  return element.fields().size();
}

struct Lowerer {
  const Database& db;
  const std::map<const ExprNode*, Type>& types;

  Result<NodePtr> Lower(const Expr& e) {
    const ExprNode& n = e.node();
    switch (n.kind) {
      case ExprKind::kInput: {
        BAGALG_ASSIGN_OR_RETURN(Bag bag, db.Get(n.name));
        auto node = std::make_unique<IrNode>(IrKind::kScan);
        node->scan_name = n.name;
        node->scan_bag = std::move(bag);
        node->origin = e;
        return node;
      }
      case ExprKind::kConst: {
        if (!n.literal->IsBag()) {
          return Status::Unsupported("non-bag constant at pipeline root");
        }
        auto node = std::make_unique<IrNode>(IrKind::kScan);
        node->scan_name = "const";
        node->scan_bag = n.literal->bag();
        node->origin = e;
        return node;
      }
      case ExprKind::kAdditiveUnion: {
        auto node = std::make_unique<IrNode>(IrKind::kUnionAll);
        node->origin = e;
        BAGALG_RETURN_IF_ERROR(FlattenUnion(e, &node->children));
        return node;
      }
      case ExprKind::kSubtract:
      case ExprKind::kMaxUnion:
      case ExprKind::kIntersect: {
        auto node = std::make_unique<IrNode>(IrKind::kMerge);
        node->merge_kind = n.kind == ExprKind::kSubtract
                               ? MergeKind::kMonus
                           : n.kind == ExprKind::kMaxUnion
                               ? MergeKind::kMaxUnion
                               : MergeKind::kIntersect;
        node->origin = e;
        BAGALG_ASSIGN_OR_RETURN(NodePtr l, Lower(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(NodePtr r, Lower(n.children[1]));
        node->children.push_back(std::move(l));
        node->children.push_back(std::move(r));
        return node;
      }
      case ExprKind::kProduct: {
        auto node = std::make_unique<IrNode>(IrKind::kCrossJoin);
        node->origin = e;
        auto it = types.find(n.children[0].raw());
        if (it == types.end()) {
          return Status::Internal("untyped product operand in lowering");
        }
        // Typechecking admits only tuple-bag products; a 0 arity means a
        // bag of 0-ary tuples, where pushdown simply finds no probe-side
        // columns.
        node->probe_arity = TupleArityOf(it->second);
        BAGALG_ASSIGN_OR_RETURN(NodePtr l, Lower(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(NodePtr r, Lower(n.children[1]));
        node->children.push_back(std::move(l));
        node->children.push_back(std::move(r));
        return node;
      }
      case ExprKind::kMap: {
        BAGALG_ASSIGN_OR_RETURN(RowProgram program,
                                RowProgram::Compile(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(NodePtr child, Lower(n.children[1]));
        Stage stage;
        stage.kind = StageKind::kProject;
        stage.program = std::move(program);
        child->stages.push_back(std::move(stage));
        return child;
      }
      case ExprKind::kSelect: {
        BAGALG_ASSIGN_OR_RETURN(RowProgram lhs,
                                RowProgram::Compile(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(RowProgram rhs,
                                RowProgram::Compile(n.children[1]));
        BAGALG_ASSIGN_OR_RETURN(NodePtr child, Lower(n.children[2]));
        Stage stage;
        stage.kind = StageKind::kFilter;
        stage.program = std::move(lhs);
        stage.rhs = std::move(rhs);
        child->stages.push_back(std::move(stage));
        return child;
      }
      case ExprKind::kDupElim: {
        auto node = std::make_unique<IrNode>(IrKind::kDupElim);
        node->origin = e;
        BAGALG_ASSIGN_OR_RETURN(NodePtr child, Lower(n.children[0]));
        node->children.push_back(std::move(child));
        return node;
      }
      default:
        return Status::Unsupported(
            std::string("operator ") + ExprKindName(n.kind) +
            " is outside the BALG^1 pipeline fragment");
    }
  }

  /// Flattens nested ⊎ into one n-ary union, but only across bare union
  /// nodes — a fused child (one carrying stages) keeps its own pipeline.
  Status FlattenUnion(const Expr& e, std::vector<NodePtr>* out) {
    const ExprNode& n = e.node();
    for (const Expr& c : n.children) {
      if (c.node().kind == ExprKind::kAdditiveUnion) {
        BAGALG_RETURN_IF_ERROR(FlattenUnion(c, out));
        continue;
      }
      BAGALG_ASSIGN_OR_RETURN(NodePtr child, Lower(c));
      if (child->kind == IrKind::kUnionAll && child->stages.empty()) {
        for (auto& grandchild : child->children) {
          out->push_back(std::move(grandchild));
        }
      } else {
        out->push_back(std::move(child));
      }
    }
    return Status::Ok();
  }
};

/// Best-effort static_cost annotation: cost_note carries the size bound's
/// rendering, est_rows its numeric value when the exact-facts analysis
/// produced a constant that fits uint64.
void Annotate(IrNode* node, const analysis::CostAnalysis& costs) {
  if (node->origin.IsValid()) {
    auto it = costs.per_node.find(node->origin.raw());
    if (it != costs.per_node.end()) {
      node->cost_note = it->second.bound.ToString();
      const analysis::SizeBound& bound = it->second.bound;
      if (bound.IsFinite() && bound.poly.Degree() == 0) {
        Result<BigNat> exact = bound.poly.ConstantTerm().ToBigNat();
        if (exact.ok()) {
          Result<uint64_t> small = exact.value().ToUint64();
          if (small.ok()) node->est_rows = small.value();
        }
      }
    }
  }
  for (auto& child : node->children) Annotate(child.get(), costs);
}

/// The explain entry points' lowering: one exact-facts cost analysis both
/// types the plan and annotates it. When it fails, LowerToIr types the
/// plan itself, which reports a type error or lowers unannotated.
Result<IrPlan> LowerAnnotated(const Expr& expr, const Database& db,
                              const LowerOptions& options) {
  Result<analysis::CostAnalysis> costs = analysis::AnalyzeCost(
      expr, db.schema(), analysis::CostFacts::Exact(db));
  if (!costs.ok()) return LowerToIr(expr, db, options);
  BAGALG_ASSIGN_OR_RETURN(IrPlan plan,
                          LowerToIr(expr, db, costs->node_types, options));
  Annotate(plan.root.get(), *costs);
  return plan;
}

}  // namespace

Result<IrPlan> LowerToIr(const Expr& expr, const Database& db,
                         const std::map<const ExprNode*, Type>& node_types,
                         const LowerOptions& options) {
  Lowerer lowerer{db, node_types};
  BAGALG_ASSIGN_OR_RETURN(NodePtr root, lowerer.Lower(expr));
  // BALG¹ rows hold no bag, so every IR row is a fixed-shape tree of atoms
  // (the executor's flat cells). A bag of bags anywhere in the plan is
  // outside the fragment; `eval` still runs it.
  for (const auto& [node, type] : node_types) {
    if (type.BagNesting() > 1) {
      return Status::Unsupported(
          "bag nesting " + std::to_string(type.BagNesting()) + " (" +
          type.ToString() + ") is outside the BALG^1 pipeline fragment");
    }
  }

  IrPlan plan;
  plan.root = std::move(root);
  PassOptions pass_options;
  pass_options.verify_each =
      options.verify == LowerOptions::Verify::kOn ||
      (options.verify == LowerOptions::Verify::kAuto && IrVerifyEnabled());
  pass_options.observer = options.observer;
  BAGALG_RETURN_IF_ERROR(RunPasses(&plan, pass_options));
  BAGALG_RETURN_IF_ERROR(CheckFusionLegality(plan));
  return plan;
}

Result<IrPlan> LowerToIr(const Expr& expr, const Database& db,
                         const LowerOptions& options) {
  std::map<const ExprNode*, Type> node_types;
  BAGALG_RETURN_IF_ERROR(
      AnalyzeExpr(expr, db.schema(), &node_types).status());
  return LowerToIr(expr, db, node_types, options);
}

Result<std::string> ExplainIr(const Expr& expr, const Database& db,
                              const LowerOptions& options) {
  BAGALG_ASSIGN_OR_RETURN(IrPlan plan, LowerAnnotated(expr, db, options));
  return ExplainIrPlan(plan);
}

Result<std::string> ExplainIrFacts(const Expr& expr, const Database& db,
                                   const LowerOptions& options) {
  BAGALG_ASSIGN_OR_RETURN(IrPlan plan, LowerAnnotated(expr, db, options));
  BAGALG_ASSIGN_OR_RETURN(const RowLayoutMap layouts, ComputeRowLayouts(plan));
  const IrFactsMap facts = ComputeIrFacts(plan, layouts);
  return ExplainIrPlan(plan, [&](const IrNode& node) {
    return facts.at(&node).ToString(layouts.at(&node).out());
  });
}

}  // namespace bagalg::ir
