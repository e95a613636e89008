#ifndef BAGALG_IR_EXEC_IR_H_
#define BAGALG_IR_EXEC_IR_H_

/// \file exec_ir.h
/// The vectorized IR interpreter: push loops over RowBatch.
///
/// Each IrNode kind has one producer that pushes its output stream, one
/// batch of up to kDefaultBatchSize rows at a time, into a sink supplied
/// by its consumer. Fused stages wrap that sink — a filter compacts the
/// batch in place with a write index, a projection rewrites values through
/// the compiled RowProgram (or its gather / field-ref fast path) — so a
/// scan→σ→MAP chain is literally one pass over each batch with zero
/// intermediate Bags. Blocking nodes (merge, ε, join build sides, shared
/// CSE subplans, the root) drain their inputs into a Bag first.
///
/// Governor integration is per batch: a BatchCheckpointTicker checks once
/// per ~kCheckpointStride rows instead of every row; it charges no bytes.
/// Materialization points (merge kernels, dup-elim, hash-join build sides)
/// account memory through Bag::Builder exactly as the evaluator's kernels
/// do, so memory-cap trips match `eval`.
///
/// Non-fusible plans never reach this layer — lowering rejects them.

#include <map>
#include <string>

#include "src/algebra/database.h"
#include "src/core/value.h"
#include "src/ir/ir.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace bagalg::ir {

struct ExecIrOptions {
  /// When non-null and enabled, per-pipeline spans ("ir.pipeline.<kind>")
  /// wrap each materializing drain and ir.* metrics are recorded.
  obs::Tracer* tracer = nullptr;
};

/// Runs a lowered plan to a canonical bag. The ambient governor (installed
/// by the caller's GovernorScope) is enforced per batch. `db` is the
/// database the plan was lowered against; lowering already bound every
/// scan's bag, so execution reads nothing else from it.
Result<Bag> ExecuteIr(const IrPlan& plan, const Database& db,
                      const ExecIrOptions& options = {});

}  // namespace bagalg::ir

#endif  // BAGALG_IR_EXEC_IR_H_
