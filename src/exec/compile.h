#ifndef BAGALG_EXEC_COMPILE_H_
#define BAGALG_EXEC_COMPILE_H_

/// \file compile.h
/// Runs BALG¹ expressions on the fused loop IR (src/ir).
///
/// RunPipeline lowers a plan to the IR as written (ir::LowerToIr; the IR
/// passes are its only optimizer, and the IR verifier checks the plan
/// after every pass: src/ir/verify.h, on by default in Debug and under
/// BAGALG_IR_VERIFY=1), and runs it batch-at-a-time (ir::ExecuteIr). The
/// algebra rewriter does not run first, so a plan is accepted or refused
/// by its own shape, not by what `optimize` would make of it. The
/// supported fragment is exactly the
/// paper's tractable one (§4): no powerset, no bag-destroy, no fixpoints,
/// no nested-bag construction, and lambda bodies restricted to object level
/// (τ / α / const / the binder). A plan outside it fails with the IR's
/// status (kUnsupported, kNotFound, kTypeError); there is no second engine
/// to retry on. The tree-walking evaluator (`eval`) is the reference.

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
/// plan that does not typecheck. Defined in src/ir/run.cc (libbagalg_ir);
/// callers link bagalg_ir.
Result<Bag> RunPipeline(
    const Expr& expr, const Database& db, const ExecOptions& options = {},
    const std::map<const ExprNode*, Type>* node_types = nullptr);

}  // namespace bagalg::exec

#endif  // BAGALG_EXEC_COMPILE_H_
