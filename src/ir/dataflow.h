#ifndef BAGALG_IR_DATAFLOW_H_
#define BAGALG_IR_DATAFLOW_H_

/// \file dataflow.h
/// Row layouts and property dataflow over the fused loop IR.
///
/// Every row of a BALG¹ plan is a fixed-shape tree of atoms, so one row
/// type describes each node's rows exactly. ComputeRowLayouts derives those
/// types bottom-up and compiles every stage against the rows it reads; it
/// is the one structural check of a plan (the verifier, verify.h, is the
/// tractability guard plus this walk) and the executor's input.
///
/// The facts ride on the layout: per-node properties proven bottom-up in
/// one pass. Every fact is *may-unknown / must-proven*: a set property
/// (dup_free, a key, a constant column) is only recorded when the transfer
/// rules prove it; absence means "unknown", never "false". That makes
/// every consumer sound by construction — the fact-driven passes
/// (passes.cc) only fire on proven facts. The facts take each node's row
/// shape from its layout and never fail.
///
/// The lattice per node, in dataflow order:
///
///   dup_free     every multiplicity in the node's output is exactly 1
///   keys         column sets on which distinct entries differ (the full
///                column set of a tuple row is an implicit key: canonical
///                entries are distinct values, so two entries always
///                differ somewhere)
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

// ------------------------------------------------------------ row layout
//
// A node's rows are described by one row type, and a row is its atom ids,
// leaves left to right: CellWidth(type) cells. Rows of a type that holds
// Bottom never exist — only an empty bag has a Bottom element type — so a
// stage over such rows produces Bottom and never runs.

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

/// Compiles one stage against the rows of type `in` it reads. Fails
/// (kInternal, "ir verify: ...") on an empty program or a program that
/// does not type over `in`.
Result<StageLayout> CompileStage(const Stage& stage, const Type& in);

/// Derives every node's row types bottom-up and compiles every stage
/// against the rows it reads: a scan's rows are its bag's element type;
/// ⊎ and merges join their children's types (Type::Join); joins
/// concatenate their sides' fields; ε keeps its child's; a stage yields
/// its program's output type. Fails (kInternal, "ir verify: ...") on a
/// plan the executor cannot run: a wrong child count (a union needs at
/// least two inputs), a scan of bags of bags, union or merge children
/// whose row types do not join (so their cells disagree), a join side
/// that is not a tuple, a probe_arity other than the probe row's field
/// count, a hash key outside its side's fields, or a stage program that
/// is empty or does not type over its rows. ExecuteIr runs it once per
/// run; VerifyIr after every pass.
Result<RowLayoutMap> ComputeRowLayouts(const IrPlan& plan);

// -------------------------------------------------------- dataflow facts

struct IrFacts {
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

  /// True when `cols` (1-based, any order) is proven to contain a key of
  /// these rows, whose type is `row` — an explicit key, or the implicit
  /// full-column key when `row` is a tuple and `cols` covers every field.
  /// A gather over such a column set is injective on entries.
  bool HasKeyWithin(const std::vector<size_t>& cols, const Type& row) const;

  /// Compact rendering for explain ir --facts, e.g.
  /// "[arity=2 dup_free key{1} const{2=k} rows=3..40]"; the arity is that
  /// of `row` when it is a tuple. Empty when nothing is proven.
  std::string ToString(const Type& row) const;
};

/// Facts keyed by node; populated for every node in the plan.
using IrFactsMap = std::map<const IrNode*, IrFacts>;

/// Steps `in`, the facts of rows of type `in_row`, through one fused stage
/// compiled against them as `compiled`. A projection's constant and copied
/// fields are read off its cell map.
IrFacts ApplyStageFacts(const Stage& stage, const Type& in_row,
                        const StageLayout& compiled, const IrFacts& in);

/// Combines child facts through the node's source semantics (scan payload,
/// union, join, merge, dup-elim), *before* the node's own stages.
/// `layouts` holds the row types of the node and of its children.
IrFacts NodeBaseFacts(const IrNode& node, const RowLayoutMap& layouts,
                      const std::vector<const IrFacts*>& children);

/// Bottom-up facts for every node (post-stage) of the plan `layouts` was
/// derived from.
IrFactsMap ComputeIrFacts(const IrPlan& plan, const RowLayoutMap& layouts);

}  // namespace bagalg::ir

#endif  // BAGALG_IR_DATAFLOW_H_
