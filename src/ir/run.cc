/// \file run.cc
/// The definition of exec::RunPipeline (run.h): lower, then run on the IR.

#include "src/ir/run.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/governor.h"

namespace bagalg::exec {

Result<Bag> RunPipeline(const Expr& expr, const Database& db,
                        const ExecOptions& options,
                        const std::map<const ExprNode*, Type>* node_types) {
  BAGALG_ASSIGN_OR_RETURN(ir::IrPlan plan,
                          node_types != nullptr
                              ? ir::LowerToIr(expr, db, *node_types)
                              : ir::LowerToIr(expr, db));
  obs::Span span;
  if (options.tracer != nullptr && options.tracer->enabled()) {
    span = options.tracer->StartSpan("exec.pipeline", "exec");
    span.AddAttr("engine", "ir");
  }
  ir::ExecIrOptions ir_options;
  ir_options.tracer = options.tracer;
  Result<Bag> out = [&] {
    GovernorScope scope(options.governor);
    return ir::ExecuteIr(plan, db, ir_options);
  }();
  if (options.governor != nullptr) obs::MirrorGovernorStats();
  if (span.active() && out.ok()) {
    span.AddAttr("rows", uint64_t{out.value().DistinctCount()});
  }
  return out;
}

}  // namespace bagalg::exec
