#ifndef BAGALG_IR_EXEC_IR_H_
#define BAGALG_IR_EXEC_IR_H_

/// \file exec_ir.h
/// The vectorized IR interpreter: push loops over flat rows (FlatRows).
///
/// ExecuteIr first derives every node's row type (dataflow.h's
/// ComputeRowLayouts) and compiles each fused stage against the rows it
/// reads: a projection becomes a cell map (every output cell is an input
/// cell or a constant atom), a filter a list of cell pairs that must match.
/// Each IrNode kind has one producer that pushes its output stream, one
/// batch of up to kDefaultBatchSize rows at a time, into a sink supplied by
/// its consumer. Fused stages wrap that sink — a filter compacts the batch
/// in place with a write index, a projection rewrites its cells — so a
/// scan→σ→MAP chain is one pass over integer cells. Blocking nodes (merge,
/// ε, join build sides, shared CSE subplans) drain their inputs into
/// canonical rows first (Canonicalize): natural runs are merged or the rows
/// sorted by their cells, then equal rows are combined. ∸, ∪ and ∩ are one
/// merge walk over two canonical inputs (MergeWalk); both are the kernels
/// the evaluator runs on flat bags (flat_rows.h). The hash join keys on the
/// cell range of its key field. A scan emits its bag's stored rows, and the
/// root drain's canonical rows become the result bag's storage: no Value
/// is built anywhere.
///
/// Governor integration is per batch: a BatchCheckpointTicker checks once
/// per ~kCheckpointStride rows instead of every row; it charges no bytes.
/// Every drain charges the canonical rows it keeps, a scanned bag's cells
/// are charged once when first built, and the result bag is charged like
/// any other, so memory-cap trips keep their typed code.
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
