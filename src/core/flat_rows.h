#ifndef BAGALG_CORE_FLAT_ROWS_H_
#define BAGALG_CORE_FLAT_ROWS_H_

/// \file flat_rows.h
/// Flat rows: the storage of every bag whose elements hold no bag, and the
/// kernels both engines run on it.
///
/// A value that holds no bag is a fixed-shape tree of atoms, so its atom
/// ids (its leaves, left to right) and its type say all there is to say
/// about it. The elements of such a bag all share one shape, so the
/// canonical value order of its entries is the lexicographic order of
/// their cell rows (atoms order by id). The evaluator's BALG¹ kernels
/// (bag_ops.h), the IR's push loops (exec_ir.h) and the printers all read
/// and write these rows; Values are built only when a caller asks for one.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/atom.h"
#include "src/util/bignat.h"
#include "src/util/governor.h"
#include "src/util/result.h"

namespace bagalg {

using Mult = BigNat;

/// Rows of `width` cells, row-major: row i's atom ids are cells[i · width,
/// (i + 1) · width) and its multiplicity is counts[i]. A bag's storage
/// (Bag::flat_rows) holds them in canonical order: strictly increasing
/// rows, positive counts. The IR hands unordered chunks of them from
/// producer to sink.
struct FlatRows {
  size_t width = 0;
  std::vector<AtomId> cells;
  std::vector<Mult> counts;

  size_t size() const { return counts.size(); }
  bool empty() const { return counts.empty(); }
  const AtomId* row(size_t i) const { return cells.data() + i * width; }
  void Clear() {
    cells.clear();
    counts.clear();
  }
  void Reserve(size_t n) {
    cells.reserve(n * width);
    counts.reserve(n);
  }
  void Push(const AtomId* row, Mult c) {
    // Cell by cell: rows are a few cells wide, too short for a range
    // insert to pay off.
    for (size_t k = 0; k < width; ++k) cells.push_back(row[k]);
    counts.push_back(std::move(c));
  }
  /// Bytes held by the cells and counts, for governor accounting.
  uint64_t Bytes() const {
    return cells.capacity() * sizeof(AtomId) +
           counts.capacity() * sizeof(Mult);
  }
};

/// Lexicographic three-way comparison of two rows of `width` cells: the
/// canonical order of rows of one shape.
inline int CompareRows(const AtomId* a, const AtomId* b, size_t width) {
  for (size_t k = 0; k < width; ++k) {
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  }
  return 0;
}

/// Puts rows of `width` cells, held as any number of parts, in canonical
/// order and combines equal rows, adding their counts: returns one row per
/// distinct row, in order. The counts are moved out of `parts`. Rows
/// already in order are only combined; a few sorted runs (concatenated
/// canonical streams) are merged pairwise; anything else is sorted.
FlatRows Canonicalize(std::vector<FlatRows>& parts, size_t width);

/// The multiplicity-merging binary operators over canonical rows: monus
/// (∸), max-union (∪), intersection (∩) and additive union (⊎).
enum class MergeKind : uint8_t { kMonus, kMaxUnion, kIntersect, kAdditive };

/// A merge walk's output that keeps every row: Push never asks for Emit.
class RowCollector {
 public:
  explicit RowCollector(FlatRows* rows) : rows_(rows) {}
  bool Push(const AtomId* row, Mult c) {
    rows_->Push(row, std::move(c));
    return false;
  }
  Status Emit() { return Status::Ok(); }
  Status Finish() { return Status::Ok(); }

 private:
  FlatRows* rows_;
};

/// One merge walk over two canonical inputs of `width` cells, pushing the
/// result rows into `out` in canonical order. A row on one side only keeps
/// its count under ∸ (left side), ∪ and ⊎ (either side); a row on both
/// sides gets the operator's combined count, and is dropped when that is
/// zero. `out` is an IR batch filler or a RowCollector: Push(row, count)
/// returns true when Emit must run, Finish passes on the rest. The walk
/// checks the ambient governor every kCheckpointStride rows.
template <typename Out>
Status MergeWalk(MergeKind kind, const FlatRows& l, const FlatRows& r,
                 size_t width, Out* out) {
  CheckpointTicker ticker;
  const bool keep_left = kind != MergeKind::kIntersect;
  const bool keep_right =
      kind == MergeKind::kMaxUnion || kind == MergeKind::kAdditive;
  size_t i = 0;
  size_t j = 0;
  while (i < l.size() && j < r.size()) {
    if (ticker.Due()) BAGALG_RETURN_IF_ERROR(ticker.Flush());
    const int c = CompareRows(l.row(i), r.row(j), width);
    bool full = false;
    if (c < 0) {
      if (keep_left) full = out->Push(l.row(i), l.counts[i]);
      ++i;
    } else if (c > 0) {
      if (keep_right) full = out->Push(r.row(j), r.counts[j]);
      ++j;
    } else {
      Mult m;
      switch (kind) {
        case MergeKind::kMonus:
          m = l.counts[i].MonusSub(r.counts[j]);
          break;
        case MergeKind::kMaxUnion:
          m = Mult::Max(l.counts[i], r.counts[j]);
          break;
        case MergeKind::kIntersect:
          m = Mult::Min(l.counts[i], r.counts[j]);
          break;
        case MergeKind::kAdditive:
          m = l.counts[i] + r.counts[j];
          break;
      }
      if (!m.IsZero()) full = out->Push(l.row(i), std::move(m));
      ++i;
      ++j;
    }
    if (full) BAGALG_RETURN_IF_ERROR(out->Emit());
  }
  for (; keep_left && i < l.size(); ++i) {
    if (out->Push(l.row(i), l.counts[i])) BAGALG_RETURN_IF_ERROR(out->Emit());
  }
  for (; keep_right && j < r.size(); ++j) {
    if (out->Push(r.row(j), r.counts[j])) BAGALG_RETURN_IF_ERROR(out->Emit());
  }
  BAGALG_RETURN_IF_ERROR(ticker.Flush());
  return out->Finish();
}

}  // namespace bagalg

#endif  // BAGALG_CORE_FLAT_ROWS_H_
