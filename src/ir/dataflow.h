#ifndef BAGALG_IR_DATAFLOW_H_
#define BAGALG_IR_DATAFLOW_H_

/// \file dataflow.h
/// Property dataflow over the fused loop IR: per-node facts on a small
/// lattice, computed bottom-up in one pass.
///
/// Every fact is *may-unknown / must-proven*: a set property (dup_free, a
/// key, a constant column) is only recorded when the transfer rules prove
/// it; absence means "unknown", never "false". That makes every consumer
/// sound by construction — the fact-driven passes (passes.cc) only fire on
/// proven facts, and the verifier (verify.h) treats a transfer-rule
/// *failure* (an arity mismatch, an out-of-range column reference) as a
/// structural error in the plan.
///
/// The lattice per node, in dataflow order:
///
///   shape        ⊥ (unknown) | non-tuple | tuple(arity)
///   dup_free     every multiplicity in the node's output is exactly 1
///   keys         column sets on which distinct entries differ (the full
///                column set is an implicit key: canonical entries are
///                distinct values, so two entries always differ somewhere)
///   const_cols   columns carrying the same value in every row
///   disjoint     (kUnionAll) children proven pairwise entry-disjoint —
///                with dup-free children this makes the union dup-free
///   rows         [min, max] interval over *distinct entries* streamed;
///                max folds in the static_cost annotation (IrNode::est_rows,
///                set only by the explain entry points) when the
///                structural bound is weaker
///
/// Facts describe the node's *post-stage* output; ApplyStageFacts steps a
/// fact set through one fused stage, and NodeBaseFacts combines child facts
/// through the node's source semantics. Both are exposed so passes can walk
/// a stage list incrementally (const-fold does exactly that).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/value.h"
#include "src/ir/ir.h"
#include "src/util/result.h"

namespace bagalg::ir {

struct IrFacts {
  enum class Shape : uint8_t { kUnknown, kNonTuple, kTuple };

  Shape shape = Shape::kUnknown;
  size_t arity = 0;  ///< valid iff shape == kTuple

  bool dup_free = false;
  /// Proven keys: 1-based column sets, each sorted ascending. Bounded by
  /// kMaxKeys; the implicit full-column key is not stored (HasKeyWithin
  /// handles it).
  std::vector<std::vector<size_t>> keys;
  /// Proven constant columns (1-based).
  std::map<size_t, Value> const_cols;
  /// kUnionAll only: children proven pairwise disjoint.
  bool disjoint_children = false;

  /// Distinct-entry cardinality interval. max_rows nullopt = unbounded.
  uint64_t min_rows = 0;
  std::optional<uint64_t> max_rows;

  /// True when `cols` (1-based, any order) is proven to contain a key —
  /// an explicit one, or the implicit full-column key when the shape is a
  /// known tuple and `cols` covers every column. A gather over such a
  /// column set is injective on entries.
  bool HasKeyWithin(const std::vector<size_t>& cols) const;

  /// Compact rendering for explain ir --facts, e.g.
  /// "[dup_free key{1} const{2='k'} rows=3..40]". Empty when nothing is
  /// proven beyond an unknown shape.
  std::string ToString() const;
};

/// Facts keyed by node; populated for every node in the plan.
using IrFactsMap = std::map<const IrNode*, IrFacts>;

/// Steps `in` through one fused stage. Fails (kInternal) when the stage is
/// structurally inconsistent with the incoming shape: a column reference
/// off the end of a known tuple, a filter over a known non-tuple, an empty
/// program.
Result<IrFacts> ApplyStageFacts(const Stage& stage, const IrFacts& in);

/// Combines child facts through the node's source semantics (scan payload,
/// union, join, merge, dup-elim), *before* the node's own stages. Fails
/// (kInternal) on structural inconsistencies: child arity mismatches under
/// a union, hash keys outside their side's arity, non-tuple join inputs,
/// wrong child counts.
Result<IrFacts> NodeBaseFacts(const IrNode& node,
                              const std::vector<const IrFacts*>& children);

/// Bottom-up facts for every node (post-stage). Fails on the first
/// structural inconsistency — the error doubles as the verifier's finding.
Result<IrFactsMap> ComputeIrFacts(const IrPlan& plan);

// ------------------------------------------------------------ row layout
//
// Every row of a BALG¹ plan is a fixed-shape tree of atoms (rows hold no
// bag), so a node's rows are fully described by one row type, and a row
// is its atom ids, leaves left to right: CellWidth(type) cells. Rows of a
// type that holds Bottom never exist — only an empty bag has a Bottom
// element type — so a stage over such rows produces Bottom and never runs.

/// One fused stage compiled against the row type it reads (left empty
/// when no row of that type can exist).
struct StageLayout {
  Type out;           ///< the row type the stage produces
  CellMap project;    ///< kProject: the output cells
  CellFilter filter;  ///< kFilter: the cells that must match
};

/// A node's row types: its source's, then after each fused stage.
struct RowLayout {
  Type source;
  std::vector<StageLayout> stages;
  const Type& out() const {
    return stages.empty() ? source : stages.back().out;
  }
};

using RowLayoutMap = std::map<const IrNode*, RowLayout>;

/// True when no row of `type` can exist: the type holds Bottom.
bool IsVoidRow(const Type& type);

/// The cells [begin, end) of 1-based field `field` in rows of tuple type
/// `row`; requires 1 <= field <= row.fields().size().
std::pair<size_t, size_t> FieldCells(const Type& row, size_t field);

/// Derives every node's row types bottom-up and compiles every stage
/// against the rows it reads: a scan's rows are its bag's element type;
/// ⊎ and merges join their children's types (Type::Join); joins
/// concatenate their sides' fields; ε keeps its child's; a stage yields
/// its program's output type. Fails (kInternal, "ir verify: ...") on a
/// layout the executor cannot run: a scan of bags of bags, union or merge
/// children whose row types do not join (so their cells disagree), a join
/// side that is not a tuple, a hash key outside its side's fields, or a
/// stage program that does not type over its rows. ExecuteIr runs it once
/// per run; VerifyIr after every pass.
Result<RowLayoutMap> ComputeRowLayouts(const IrPlan& plan);

}  // namespace bagalg::ir

#endif  // BAGALG_IR_DATAFLOW_H_
