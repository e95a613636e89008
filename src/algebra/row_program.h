#ifndef BAGALG_ALGEBRA_ROW_PROGRAM_H_
#define BAGALG_ALGEBRA_ROW_PROGRAM_H_

/// \file row_program.h
/// Compiled row programs: the engines' replacement for per-row AST walking.
///
/// Rather than recursively walk a MAP image's or σ side's Expr tree for
/// every row, each object-level lambda body is compiled once, into a flat
/// postorder instruction sequence, and then against the row type it reads:
/// a projection becomes a cell map (every output cell is an input cell or
/// a constant atom), a filter a list of cell pairs that must match. The
/// IR's fused stages (exec_ir.h) and the evaluator's MAP and σ over flat
/// bags (eval.h) both run these on flat rows (flat_rows.h).
///
/// Three shapes cover almost every real pipeline and get dedicated fast
/// paths:
///
///   identity      λx. x                      (pass-through)
///   field-ref     λx. α_i(x)                 (join keys, filter sides)
///   gather        λx. τ(α_a1(x), ..., α_ak(x))   (projections)
///
/// The supported fragment is the object-level lambda bodies of BALG¹:
/// Var(0) / constants / tupling / attribute projection. Anything else fails
/// to compile with kUnsupported; the IR rejects such plans, and the
/// evaluator walks such bodies as Expr trees.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/expr.h"
#include "src/core/flat_rows.h"
#include "src/core/value.h"
#include "src/util/result.h"

namespace bagalg {

/// Where one output cell of a compiled row program comes from: a cell of
/// the input row, or a constant atom.
struct CellSource {
  bool constant = false;
  uint32_t value = 0;  ///< the input cell's index, or the constant's AtomId

  /// The cell's atom in the row starting at `row`.
  AtomId Read(const AtomId* row) const { return constant ? value : row[value]; }
};

/// A projection compiled against its input row type: the output row type
/// and, per output cell, where it comes from.
struct CellMap {
  Type type;
  std::vector<CellSource> cells;

  /// True when the map copies rows of `width` cells unchanged.
  bool IsIdentity(size_t width) const;
  /// The cells of every row of `rows` mapped through this map, row-major
  /// (cells.size() per row); the counts are the caller's to carry over.
  std::vector<AtomId> Project(const FlatRows& rows) const;
};

/// A filter compiled against its input row type. Its two sides are equal
/// on a row iff every pair of cells matches; a side that differs in shape
/// from the other, or two constant sides, decide every row at once.
struct CellFilter {
  enum class Kind : uint8_t { kKeepAll, kDropAll, kCompare };
  Kind kind = Kind::kKeepAll;
  std::vector<std::pair<CellSource, CellSource>> pairs;  ///< kCompare

  /// Keeps the rows of `rows` on which the filter holds, in order,
  /// compacting in place.
  void Apply(FlatRows* rows) const;
};

/// A compiled object-level lambda body.
class RowProgram {
 public:
  enum class OpCode : uint8_t {
    kLoadRow,    ///< push the input row
    kLoadConst,  ///< push constants[arg]
    kProjField,  ///< pop a tuple, push its arg-th field (1-based)
    kMakeTuple,  ///< pop arg values, push the tuple of them (in order)
  };

  struct Insn {
    OpCode op;
    uint32_t arg;
  };

  /// Compiles `body` (an expression over Var(0)). Unsupported when the body
  /// leaves the pipeline lambda fragment (bag operators, deeper binders).
  static Result<RowProgram> Compile(const Expr& body);

  /// λx. v — a program that ignores the row and produces `v`. The
  /// const-fold pass rewrites provably-constant stages to this shape.
  static RowProgram Constant(Value v);

  /// λx. τ(α_a1(x), ..., α_ak(x)) for the given 1-based field list; the
  /// empty list yields λx. τ() (a constant). The dead-column pass builds
  /// narrowing projections with this.
  static RowProgram GatherOf(const std::vector<size_t>& fields);

  /// λx. x — the program is a pass-through.
  bool IsIdentity() const { return identity_; }

  /// λx. α_i(x): returns the 1-based field index, nullopt otherwise.
  std::optional<size_t> FieldRef() const { return field_ref_; }

  /// λx. τ(α_a1(x), ..., α_ak(x)): the 1-based field list, empty optional
  /// otherwise. The basis of the projection fast path and of column-remap
  /// pushdowns.
  const std::optional<std::vector<size_t>>& Gather() const { return gather_; }

  /// The program's value when it never reads the row (no kLoadRow): the
  /// same value for every input. nullopt for row-dependent programs.
  const std::optional<Value>& ConstantValue() const { return const_val_; }

  /// The distinct top-level row columns this program reads (1-based,
  /// sorted). nullopt when the whole row escapes (identity, or the row used
  /// directly inside a tuple) — such a program cannot be pushed across a
  /// column boundary.
  std::optional<std::vector<size_t>> ColumnRefs() const;

  /// Rewrites every top-level row-column access c to c - delta. Used when a
  /// predicate on a joined row is pushed into the right (build) side, whose
  /// rows lack the probe side's leading columns. Requires ColumnRefs() to
  /// be available and every reference to exceed delta.
  void ShiftColumns(size_t delta);

  /// Rewrites every top-level row-column access c to map[c - 1] (1-based
  /// on both sides). Used when a predicate is pushed below a gather
  /// projection. Requires ColumnRefs(); false if some reference has no
  /// mapping (c > map.size()).
  bool RemapColumns(const std::vector<size_t>& map);

  /// Executes the program on one row. InvalidArgument on a bad attribute
  /// projection (non-tuple operand or out-of-range field). Only plan-time
  /// constant folding runs programs on values; execution uses CompileCells.
  Result<Value> Run(const Value& row) const;

  /// Compiles the program against rows of `row_type` (a tree of atoms and
  /// tuples): every output cell is an input cell or a constant atom.
  /// InvalidArgument on a bad attribute projection, Unsupported when the
  /// output holds a bag.
  Result<CellMap> CompileCells(const Type& row_type) const;

  /// Compiles the filter `lhs == rhs` against rows of `row_type`.
  static Result<CellFilter> CompileFilter(const RowProgram& lhs,
                                          const RowProgram& rhs,
                                          const Type& row_type);

  /// Compact rendering for explain ir, e.g. "x", "a2", "t(a1, a4)", "'k".
  std::string ToString() const;

  const std::vector<Insn>& insns() const { return insns_; }

 private:
  void Reclassify();

  std::vector<Insn> insns_;
  std::vector<Value> consts_;
  bool identity_ = false;
  std::optional<size_t> field_ref_;
  std::optional<std::vector<size_t>> gather_;
  std::optional<Value> const_val_;
};

}  // namespace bagalg

#endif  // BAGALG_ALGEBRA_ROW_PROGRAM_H_
