#ifndef BAGALG_IR_IR_H_
#define BAGALG_IR_IR_H_

/// \file ir.h
/// The fused loop IR: a batched pipeline tree between BALG plans and
/// execution.
///
/// Rather than map one algebra operator to one physical operator pulling
/// one row per virtual call, the IR collapses every fusible chain of MAP /
/// σ / α-projection into a *stage list* attached to the node that produces
/// the rows. An IrNode is therefore a pipeline: a source (scan, join,
/// union, merge) plus zero or more fused stages applied to each batch in
/// one pass, with no intermediate Bag materialized between them. Batches
/// hold rows as flat atom ids beside their counts (FlatRows, the storage
/// of flat bags too) and default to
/// kDefaultBatchSize rows, so per-row costs — dispatch, governor ticking,
/// span bookkeeping — amortize across the batch.
///
/// The supported fragment is the paper's tractable BALG¹ fragment (§4): no
/// powerset / bag-destroy / fixpoints, no type of bag nesting above 1 (so
/// rows hold no bag), object-level lambda bodies only. Lowering anything
/// else returns kUnsupported, and exec::RunPipeline returns that status as
/// is.
///
/// ExecuteIr (exec_ir.h) runs the tree as push loops, one batch at a time.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/expr.h"
#include "src/core/value.h"
#include "src/algebra/row_program.h"
#include "src/core/flat_rows.h"

namespace bagalg::ir {

/// Rows per batch. 1024 keeps a batch's cells + counts comfortably in L2
/// while amortizing per-batch overhead to noise.
inline constexpr size_t kDefaultBatchSize = 1024;

// A batch of rows is a FlatRows chunk (flat_rows.h): row-major atom ids
// beside their counts, every row of a node the same width (dataflow.h
// derives it from the node's row type). Each producer refills one batch
// for its whole stream, so steady-state execution does not allocate per
// row. A drained stream is one large FlatRows in canonical order, and the
// root's is the result bag's storage. A kMerge node's operator is a
// MergeKind (flat_rows.h): monus, max-union or intersection.

/// One fused per-row transformation applied in pipeline position.
enum class StageKind : uint8_t {
  kFilter,   ///< σ_{φ=φ'}: keep rows where program == rhs
  kProject,  ///< MAP φ / α-projection: rewrite each row through program
};

struct Stage {
  StageKind kind;
  RowProgram program;  ///< projection body, or the filter's left side
  RowProgram rhs;      ///< the filter's right side (unused for kProject)

  std::string ToString() const;
};

/// IR node kinds. Fusible per-row work never gets its own node — it lives
/// in `stages` on the producer.
enum class IrKind : uint8_t {
  kScan,      ///< stream a bound database bag (or constant) in canonical order
  kUnionAll,  ///< ⊎ over n children, streamed sequentially
  kCrossJoin, ///< × as a fused block-nested loop (build side materialized)
  kHashJoin,  ///< equi-join detected from σ over ×; hash table on build side
  kMerge,     ///< monus / max-union / intersect (blocking, kernel-based)
  kDupElim,   ///< ε (blocking)
};

const char* IrKindName(IrKind kind);

struct IrNode {
  explicit IrNode(IrKind k) : kind(k) {}

  IrKind kind;
  /// Children. For joins: [0] = probe/left, [1] = build/right.
  std::vector<std::unique_ptr<IrNode>> children;

  // --- kScan ---
  std::string scan_name;  ///< input name, or "const" for literals
  Bag scan_bag;           ///< bound at lowering time

  // --- kCrossJoin / kHashJoin ---
  /// Arity of the probe (left) side's tuples; build-side column c in the
  /// joined row is probe_arity + c.
  size_t probe_arity = 0;
  /// kHashJoin only: 1-based key columns in probe- and build-side rows.
  size_t probe_key = 0;
  size_t build_key = 0;

  // --- kMerge ---
  MergeKind merge_kind = MergeKind::kMonus;

  /// Fused per-row stages applied to this node's raw output, in order.
  std::vector<Stage> stages;

  // --- analysis annotations: cost fields set only for explain ir
  // (lower.cc), CSE marks by passes.cc ---
  std::string cost_note;          ///< static_cost rendering for explain ir
  std::optional<uint64_t> est_rows;  ///< exact-facts row bound when known
  bool cse_shared = false;        ///< materialization reused via the CSE cache
  std::string cse_key;            ///< canonical key for the shared result

  /// The source subexpression this node was lowered from. The CSE key, the
  /// static-cost annotation and the fusion legality check read it.
  Expr origin;

  /// Deep-copies the pipeline tree. Cheap relative to node count: Bag,
  /// Value, and Expr members are shared-handle copies. Used by the
  /// translation-validation harness to snapshot a plan around each pass.
  std::unique_ptr<IrNode> Clone() const;
};

/// Deep structural equality of two pipeline trees (kinds, scan payloads,
/// join/merge configuration, stage programs, CSE marks). Annotation-only
/// fields (cost_note, est_rows, origin identity) are ignored: two plans
/// that execute identically compare equal.
bool IrEquals(const IrNode& a, const IrNode& b);

struct PassStats {
  size_t filters_pushed = 0;      ///< predicate pushdowns (incl. join sides)
  size_t projections_pushed = 0;  ///< projection/column-remap pushdowns
  size_t hash_joins = 0;          ///< σ∘× pairs promoted to hash joins
  size_t cse_nodes = 0;           ///< blocking nodes marked for result reuse
  // Fact-driven passes (dataflow.h facts feed these; see passes.cc).
  size_t dead_columns = 0;     ///< columns pruned from join sides / gathers
  size_t dup_elims_removed = 0;  ///< kDupElim dropped on proven-dup-free input
  size_t const_folds = 0;      ///< constant-folded stages / emptied plans
};

/// A lowered, pass-processed plan ready for ExecuteIr.
struct IrPlan {
  std::unique_ptr<IrNode> root;
  PassStats passes;
};

/// Total number of fused stages across the plan (the "how much per-row work
/// was fused" headline of explain ir).
size_t CountFusedStages(const IrNode& node);

/// Renders the pipeline tree: one line per node with kind, details, fused
/// stages, batch size header, and cost annotations. The format is covered
/// by tests; keep it stable.
///
/// `annotate`, when set, is called once per node and its return value (if
/// non-empty) is appended to that node's line — the hook behind
/// `explain ir --facts` (verify.h renders dataflow facts through it).
using IrNodeAnnotator = std::function<std::string(const IrNode&)>;
std::string ExplainIrPlan(const IrPlan& plan,
                          const IrNodeAnnotator& annotate = nullptr);

}  // namespace bagalg::ir

#endif  // BAGALG_IR_IR_H_
