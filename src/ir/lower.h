#ifndef BAGALG_IR_LOWER_H_
#define BAGALG_IR_LOWER_H_

/// \file lower.h
/// Lowering typed BALG¹ plans into the fused loop IR.
///
/// LowerToIr is the front half of the IR engine: it lowers the expression
/// it is given, as written — folding every MAP / σ into fused stages on the
/// producing node (join lowering reads the probe side's tuple arity off
/// the node types) — then runs the IR passes (passes.h), which are the
/// only optimizer an `exec` plan meets. The algebra rewriter
/// (algebra/rewrite.h) does not run here. Only the explain entry points
/// annotate nodes with static_cost bounds; execution never reads them.
///
/// The supported fragment is the paper's tractable BALG¹ fragment (§4);
/// anything outside lowers to kUnsupported, which exec::RunPipeline
/// (run.cc) returns unchanged. The tree-walking evaluator runs every plan.

#include <map>
#include <string>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/ir/ir.h"
#include "src/ir/passes.h"
#include "src/util/result.h"

namespace bagalg::ir {

struct LowerOptions {
  /// Per-pass plan verification (verify.h): kAuto follows IrVerifyEnabled()
  /// — on in assert-enabled builds and whenever BAGALG_IR_VERIFY=1 — so
  /// Release builds can opt in without recompiling; kOn/kOff force it.
  enum class Verify { kAuto, kOn, kOff };
  Verify verify = Verify::kAuto;
  /// Pass snapshot observer (passes.h), the hook translation validation
  /// hangs its before/after executions on. Null for none.
  PassObserver observer;
};

/// Lowers `expr` against `db` into a pass-processed IR plan, typed by
/// `node_types`: AnalyzeExpr's map for this very expression, such as the
/// one the preflight's analysis::AnalyzeCost keeps. kUnsupported outside
/// the BALG¹ pipeline fragment; kNotFound for unknown inputs.
Result<IrPlan> LowerToIr(const Expr& expr, const Database& db,
                         const std::map<const ExprNode*, Type>& node_types,
                         const LowerOptions& options = {});

/// The same, typing `expr` first: kTypeError (or kNotFound) when the plan
/// does not typecheck (joins need arities).
Result<IrPlan> LowerToIr(const Expr& expr, const Database& db,
                         const LowerOptions& options = {});

/// EXPLAIN IR: run the exact-facts static_cost analysis, lower with its
/// node types, annotate each node with its size bound (cost_note,
/// est_rows; best-effort — a plan the analysis cannot cost lowers
/// unannotated), and render the fused pipeline tree (ExplainIrPlan).
Result<std::string> ExplainIr(const Expr& expr, const Database& db,
                              const LowerOptions& options = {});

/// EXPLAIN IR --facts: like ExplainIr, with each node annotated with its
/// dataflow facts (dataflow.h) — proven row shape, dup-freedom, keys,
/// constant columns, and distinct-row interval.
Result<std::string> ExplainIrFacts(const Expr& expr, const Database& db,
                                   const LowerOptions& options = {});

}  // namespace bagalg::ir

#endif  // BAGALG_IR_LOWER_H_
