#include "src/ir/ir.h"

#include <utility>

namespace bagalg::ir {

const char* IrKindName(IrKind kind) {
  switch (kind) {
    case IrKind::kScan:
      return "scan";
    case IrKind::kUnionAll:
      return "union_all";
    case IrKind::kCrossJoin:
      return "cross_join";
    case IrKind::kHashJoin:
      return "hash_join";
    case IrKind::kMerge:
      return "merge";
    case IrKind::kDupElim:
      return "dup_elim";
  }
  return "?";
}

std::string Stage::ToString() const {
  switch (kind) {
    case StageKind::kFilter:
      return "filter " + program.ToString() + " == " + rhs.ToString();
    case StageKind::kProject:
      return "project " + program.ToString();
  }
  return "?";
}

size_t CountFusedStages(const IrNode& node) {
  size_t total = node.stages.size();
  for (const auto& child : node.children) total += CountFusedStages(*child);
  return total;
}

std::unique_ptr<IrNode> IrNode::Clone() const {
  auto copy = std::make_unique<IrNode>(kind);
  copy->scan_name = scan_name;
  copy->scan_bag = scan_bag;
  copy->probe_arity = probe_arity;
  copy->probe_key = probe_key;
  copy->build_key = build_key;
  copy->merge_kind = merge_kind;
  copy->stages = stages;
  copy->cost_note = cost_note;
  copy->est_rows = est_rows;
  copy->cse_shared = cse_shared;
  copy->cse_key = cse_key;
  copy->origin = origin;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

namespace {

bool StageEquals(const Stage& a, const Stage& b) {
  if (a.kind != b.kind) return false;
  // Program identity via the symbolic rendering: it covers instructions and
  // constants, and two programs that render identically run identically.
  if (a.program.ToString() != b.program.ToString()) return false;
  if (a.kind == StageKind::kFilter && a.rhs.ToString() != b.rhs.ToString()) {
    return false;
  }
  return true;
}

}  // namespace

bool IrEquals(const IrNode& a, const IrNode& b) {
  if (a.kind != b.kind || a.children.size() != b.children.size() ||
      a.stages.size() != b.stages.size()) {
    return false;
  }
  if (a.kind == IrKind::kScan &&
      (a.scan_name != b.scan_name || !(a.scan_bag == b.scan_bag))) {
    return false;
  }
  if (a.probe_arity != b.probe_arity || a.probe_key != b.probe_key ||
      a.build_key != b.build_key || a.merge_kind != b.merge_kind ||
      a.cse_shared != b.cse_shared || a.cse_key != b.cse_key) {
    return false;
  }
  for (size_t i = 0; i < a.stages.size(); ++i) {
    if (!StageEquals(a.stages[i], b.stages[i])) return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!IrEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

namespace {

const char* MergeKindName(MergeKind kind) {
  switch (kind) {
    case MergeKind::kMonus:
      return "monus";
    case MergeKind::kMaxUnion:
      return "umax";
    case MergeKind::kIntersect:
      return "inter";
    case MergeKind::kAdditive:  // lowering streams ⊎ as kUnionAll instead
      break;
  }
  return "?";
}

void RenderNode(const IrNode& node, size_t depth, const std::string& role,
                const IrNodeAnnotator& annotate, std::string* out) {
  out->append(2 * depth, ' ');
  if (!role.empty()) {
    out->append(role);
    out->append(": ");
  }
  out->append(IrKindName(node.kind));
  switch (node.kind) {
    case IrKind::kScan:
      out->append(" ");
      out->append(node.scan_name);
      break;
    case IrKind::kHashJoin:
      out->append(" a" + std::to_string(node.probe_key) + " == b" +
                  std::to_string(node.build_key));
      break;
    case IrKind::kMerge:
      out->append(" ");
      out->append(MergeKindName(node.merge_kind));
      break;
    default:
      break;
  }
  if (node.cse_shared) out->append(" [shared]");
  if (node.est_rows.has_value()) {
    out->append(" ~" + std::to_string(*node.est_rows) + " rows");
  }
  if (!node.cost_note.empty()) {
    out->append(" : ");
    out->append(node.cost_note);
  }
  if (annotate) {
    std::string extra = annotate(node);
    if (!extra.empty()) {
      out->append(" ");
      out->append(extra);
    }
  }
  out->append("\n");
  for (const Stage& stage : node.stages) {
    out->append(2 * depth + 2, ' ');
    out->append("| ");
    out->append(stage.ToString());
    out->append("\n");
  }
  const bool join =
      node.kind == IrKind::kCrossJoin || node.kind == IrKind::kHashJoin;
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::string child_role;
    if (join) child_role = i == 0 ? "probe" : "build";
    RenderNode(*node.children[i], depth + 1, child_role, annotate, out);
  }
}

}  // namespace

std::string ExplainIrPlan(const IrPlan& plan, const IrNodeAnnotator& annotate) {
  std::string out = "ir plan: batch=" + std::to_string(kDefaultBatchSize) +
                    " fused_stages=" +
                    std::to_string(plan.root ? CountFusedStages(*plan.root)
                                             : 0);
  if (plan.passes.hash_joins != 0) {
    out += " hash_joins=" + std::to_string(plan.passes.hash_joins);
  }
  if (plan.passes.filters_pushed != 0) {
    out += " filters_pushed=" + std::to_string(plan.passes.filters_pushed);
  }
  if (plan.passes.projections_pushed != 0) {
    out += " projections_pushed=" +
           std::to_string(plan.passes.projections_pushed);
  }
  if (plan.passes.cse_nodes != 0) {
    out += " shared=" + std::to_string(plan.passes.cse_nodes);
  }
  if (plan.passes.dead_columns != 0) {
    out += " dead_columns=" + std::to_string(plan.passes.dead_columns);
  }
  if (plan.passes.dup_elims_removed != 0) {
    out += " dup_elims_removed=" + std::to_string(plan.passes.dup_elims_removed);
  }
  if (plan.passes.const_folds != 0) {
    out += " const_folds=" + std::to_string(plan.passes.const_folds);
  }
  out += "\n";
  if (plan.root != nullptr) RenderNode(*plan.root, 0, "", annotate, &out);
  return out;
}

}  // namespace bagalg::ir
