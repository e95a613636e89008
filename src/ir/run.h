#ifndef BAGALG_IR_RUN_H_
#define BAGALG_IR_RUN_H_

/// \file run.h
/// The `exec` entry point: RunPipeline lowers a BALG¹ plan to the fused
/// loop IR as written (ir::LowerToIr, whose verified passes are its only
/// optimizer) and runs it (ir::ExecuteIr). A plan outside the paper's
/// tractable fragment (§4) fails with the IR's status (kUnsupported,
/// kNotFound, kTypeError); there is no second engine to retry on. The
/// tree-walking evaluator (`eval`) is the reference.

#include <map>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/obs/trace.h"
#include "src/util/governor.h"
#include "src/util/result.h"

namespace bagalg::exec {

/// Execution knobs. Default-constructed options run uninstrumented.
struct ExecOptions {
  /// When non-null and enabled, RunPipeline adds a root "exec.pipeline"
  /// span (engine=ir, rows) with the IR's per-pipeline spans nested inside.
  obs::Tracer* tracer = nullptr;
  /// Per-query ResourceGovernor (deadline / memory cap / cancellation).
  /// RunPipeline installs it as the ambient governor for the run, so the
  /// IR's per-batch checkpoints and the kernels below enforce it.
  /// Borrowed; nullptr (the default) runs ungoverned.
  ResourceGovernor* governor = nullptr;
};

/// Lower to IR, verify, run to a canonical bag. `node_types`, when
/// non-null, is AnalyzeExpr's map for `expr` (the script runner hands in
/// the one its preflight cost analysis kept), and lowering uses it instead
/// of typing the plan again; null types it, reporting kTypeError for a
/// plan that does not typecheck.
Result<Bag> RunPipeline(
    const Expr& expr, const Database& db, const ExecOptions& options = {},
    const std::map<const ExprNode*, Type>* node_types = nullptr);

}  // namespace bagalg::exec

#endif  // BAGALG_IR_RUN_H_
