#include "src/ir/exec_ir.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/dataflow.h"
#include "src/obs/metrics.h"
#include "src/util/governor.h"

namespace bagalg::ir {

namespace {

/// Per-run executor state shared by every producer of one ExecuteIr call.
struct ExecContext {
  obs::Tracer* tracer;
  /// Row types and compiled stages of every node, derived once per run.
  const RowLayoutMap* layouts;
  /// CSE cache: cse_key -> canonical rows of the shared subplan (stages
  /// included). Lives for one run only.
  std::map<std::string, RowBatch> cse_cache;
  uint64_t batches = 0;
  uint64_t rows = 0;
  uint64_t pipelines = 0;

  const RowLayout& Layout(const IrNode& node) const {
    return layouts->at(&node);
  }
};

/// Receives each non-empty batch of a stream, in stream order. The sink may
/// move rows out of the batch; the producer clears it before refilling.
using Sink = std::function<Status(RowBatch&)>;

/// Pushes a node's output stream into `sink`.
using Producer = Status (*)(const IrNode&, ExecContext*, const Sink&);

Status Produce(const IrNode& node, ExecContext* ctx, const Sink& sink);

/// Lexicographic three-way comparison of two rows of `width` cells: the
/// canonical order of rows of one shape (atoms order by id).
int CompareRows(const AtomId* a, const AtomId* b, size_t width) {
  for (size_t k = 0; k < width; ++k) {
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  }
  return 0;
}

/// Emits `n` rows of `width` cells starting at `cells` in kDefaultBatchSize
/// chunks; `count_of(i)` is row i's multiplicity (scans, merge and ε
/// results, CSE cache entries).
template <typename CountOf>
Status EmitRows(size_t width, const AtomId* cells, size_t n,
                const CountOf& count_of, const Sink& sink) {
  RowBatch batch;
  for (size_t pos = 0; pos < n;) {
    const size_t end = std::min(n, pos + kDefaultBatchSize);
    batch.Clear();
    batch.width = width;  // a projecting sink may have changed it
    batch.cells.assign(cells + pos * width, cells + end * width);
    batch.counts.reserve(end - pos);
    for (; pos < end; ++pos) batch.counts.push_back(count_of(pos));
    BAGALG_RETURN_IF_ERROR(sink(batch));
  }
  return Status::Ok();
}

Status EmitRows(const RowBatch& rows, const Sink& sink) {
  return EmitRows(
      rows.width, rows.cells.data(), rows.size(),
      [&rows](size_t i) -> const Mult& { return rows.counts[i]; }, sink);
}

// ---------------------------------------------------------- fused stages

/// Applies one compiled stage to a batch in place. Filters compact with a
/// write index; projections rewrite every row through the cell map.
void ApplyStage(const StageLayout& stage, StageKind kind, RowBatch* batch) {
  const size_t n = batch->size();
  const size_t width = batch->width;
  if (kind == StageKind::kFilter) {
    switch (stage.filter.kind) {
      case CellFilter::Kind::kKeepAll:
        return;
      case CellFilter::Kind::kDropAll:
        batch->Clear();
        return;
      case CellFilter::Kind::kCompare:
        break;
    }
    const auto& pairs = stage.filter.pairs;
    AtomId* cells = batch->cells.data();
    size_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      const AtomId* row = cells + i * width;
      bool keep = true;
      for (const auto& [l, r] : pairs) {
        if (l.Read(row) != r.Read(row)) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      if (w != i) {
        std::copy(row, row + width, cells + w * width);
        batch->counts[w] = std::move(batch->counts[i]);
      }
      ++w;
    }
    batch->cells.resize(w * width);
    batch->counts.resize(w);
    return;
  }
  const auto& map = stage.project.cells;
  bool identity = map.size() == width;
  for (size_t k = 0; identity && k < map.size(); ++k) {
    identity = !map[k].constant && map[k].value == k;
  }
  if (identity) return;
  std::vector<AtomId> out(n * map.size());
  AtomId* o = out.data();
  for (size_t i = 0; i < n; ++i) {
    const AtomId* row = batch->row(i);
    for (const CellSource& source : map) *o++ = source.Read(row);
  }
  batch->cells = std::move(out);
  batch->width = map.size();
}

// ------------------------------------------------------- canonical order

/// Run detection gives up, and the rows are sorted instead, once the
/// natural runs average fewer than this many rows.
constexpr size_t kMinMeanRunLength = 16;

/// One drained row: its sort key (its first two cells packed), its cells
/// and its count. Rows wider than two cells break key ties by comparing
/// the remaining cells.
struct KeyedRow {
  uint64_t key;
  const AtomId* row;
  Mult* count;
};

uint64_t PrefixKey(const AtomId* row, size_t width) {
  if (width == 0) return 0;
  if (width == 1) return row[0];
  return (uint64_t{row[0]} << 32) | row[1];
}

/// Puts a drained stream, held as whole batches of `width`-cell rows, in
/// canonical order and combines equal rows, adding their counts into the
/// first one's: returns one entry per distinct row, in order. Rows already
/// in order are only combined; a few sorted runs (the concatenated
/// canonical streams of a ⊎) are merged pairwise; anything else is sorted.
std::vector<KeyedRow> Canonicalize(std::vector<RowBatch>& parts,
                                   size_t width) {
  size_t n = 0;
  for (const RowBatch& part : parts) n += part.size();
  std::vector<KeyedRow> order;
  order.reserve(n);
  for (RowBatch& part : parts) {
    for (size_t i = 0; i < part.size(); ++i) {
      order.push_back(
          {PrefixKey(part.row(i), width), part.row(i), &part.counts[i]});
    }
  }
  const auto less = [width](const KeyedRow& a, const KeyedRow& b) {
    if (a.key != b.key) return a.key < b.key;
    return width > 2 && CompareRows(a.row + 2, b.row + 2, width - 2) < 0;
  };
  // The natural runs, as [begin, end) ranges of `order`.
  std::vector<std::pair<size_t, size_t>> runs;
  bool sort_all = false;
  size_t begin = 0;
  for (size_t i = 1; i < n; ++i) {
    if (less(order[i], order[i - 1])) {
      if (runs.size() + 2 > n / kMinMeanRunLength) {
        sort_all = true;
        break;
      }
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  if (sort_all) {
    std::sort(order.begin(), order.end(), less);
  } else if (!runs.empty()) {
    // Merge the runs pairwise, halving their number each round.
    runs.emplace_back(begin, n);
    std::vector<KeyedRow> scratch(n);
    while (runs.size() > 1) {
      std::vector<std::pair<size_t, size_t>> next;
      for (size_t p = 0; p < runs.size(); p += 2) {
        const auto [lo, mid] = runs[p];
        const size_t hi = p + 1 < runs.size() ? runs[p + 1].second : mid;
        std::merge(order.begin() + lo, order.begin() + mid,
                   order.begin() + mid, order.begin() + hi,
                   scratch.begin() + lo, less);
        next.emplace_back(lo, hi);
      }
      order.swap(scratch);
      runs = std::move(next);
    }
  }
  size_t distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    KeyedRow& last = order[distinct == 0 ? 0 : distinct - 1];
    if (distinct > 0 && order[i].key == last.key &&
        CompareRows(order[i].row, last.row, width) == 0) {
      *last.count += *order[i].count;
    } else {
      order[distinct++] = order[i];
    }
  }
  order.resize(distinct);
  return order;
}

// ------------------------------------------------------------- draining

obs::Span PipelineSpan(ExecContext* ctx, const std::string& what) {
  obs::Span span;
  if (ctx->tracer != nullptr) {
    span = ctx->tracer->StartSpan("ir.pipeline." + what, "ir");
  }
  ctx->pipelines++;
  return span;
}

/// Collects a node's whole stream, as the batches it produced.
Result<std::vector<RowBatch>> Collect(Producer produce, const IrNode& node,
                                      ExecContext* ctx, obs::Span* span) {
  std::vector<RowBatch> parts;
  BatchCheckpointTicker ticker;
  uint64_t rows = 0;
  BAGALG_RETURN_IF_ERROR(produce(node, ctx, [&](RowBatch& batch) {
    const size_t n = batch.size();
    rows += n;
    // The producer refills a fresh batch.
    parts.push_back(std::move(batch));
    batch = RowBatch{parts.back().width, {}, {}};
    return ticker.OnBatch(n);
  }));
  BAGALG_RETURN_IF_ERROR(ticker.Flush());
  if (span->active()) {
    span->AddAttr("rows", rows);
    span->AddAttr("batches", uint64_t{parts.size()});
  }
  return parts;
}

/// Drains a node's stream into canonical rows under a per-pipeline span,
/// charging them to the ambient governor. The internal blocking boundaries
/// (merge inputs, build sides, ε, CSE) all come through here, so each
/// materialization shows up as one "ir.pipeline.<what>" span with
/// rows/batches attributes.
Result<RowBatch> Drain(Producer produce, const IrNode& node, ExecContext* ctx,
                       const std::string& what) {
  obs::Span span = PipelineSpan(ctx, what);
  BAGALG_ASSIGN_OR_RETURN(std::vector<RowBatch> parts,
                          Collect(produce, node, ctx, &span));
  RowBatch rows;
  rows.width = CellWidth(ctx->Layout(node).out());
  const std::vector<KeyedRow> order = Canonicalize(parts, rows.width);
  rows.Reserve(order.size());
  for (const KeyedRow& k : order) rows.Push(k.row, std::move(*k.count));
  if (rows.size() >= kGovernorAccountMinEntries) {
    GovernorAccountBytes(rows.cells.size() * sizeof(AtomId) +
                         rows.counts.size() * sizeof(Mult));
  }
  return rows;
}

/// The rows of a scanned bag whose element type is the root's, walked in
/// step with the root's canonical rows: an output row that is one of the
/// bag's rows takes its stored element value, so the result shares
/// structure with its inputs (as the evaluator's results do) instead of
/// allocating a copy.
class StoredRows {
 public:
  explicit StoredRows(const Bag& bag)
      : entries_(&bag.entries()), flat_(bag.flat_cells()) {}

  const std::vector<BagEntry>* entries() const { return entries_; }

  /// The stored value of `row`, or nullptr. Successive calls must pass
  /// rows in canonical order: the cursor only moves forward, by galloping.
  const Value* Find(const AtomId* row) {
    const size_t n = entries_->size();
    const size_t w = flat_->width;
    const auto below = [&](size_t i) {
      return CompareRows(flat_->cells.data() + i * w, row, w) < 0;
    };
    if (pos_ < n && below(pos_)) {
      size_t lo = pos_;  // below(lo) holds
      size_t step = 1;
      while (lo + step < n && below(lo + step)) {
        lo += step;
        step *= 2;
      }
      size_t hi = std::min(lo + step, n);  // hi == n or !below(hi)
      while (hi - lo > 1) {
        const size_t mid = lo + (hi - lo) / 2;
        (below(mid) ? lo : hi) = mid;
      }
      pos_ = hi;
    }
    if (pos_ < n &&
        CompareRows(flat_->cells.data() + pos_ * w, row, w) == 0) {
      return &(*entries_)[pos_].value;
    }
    return nullptr;
  }

 private:
  const std::vector<BagEntry>* entries_;
  const Bag::FlatCells* flat_;
  size_t pos_ = 0;
};

/// The distinct non-empty scanned bags under `node` whose rows are of
/// `type`.
void FindStoredRows(const IrNode& node, const Type& type,
                    std::vector<StoredRows>* out) {
  const Bag& bag = node.scan_bag;
  const auto same = [&bag](const StoredRows& s) {
    return s.entries() == &bag.entries();
  };
  if (node.kind == IrKind::kScan && !bag.empty() &&
      bag.element_type() == type &&
      std::none_of(out->begin(), out->end(), same)) {
    out->emplace_back(bag);
  }
  for (const auto& child : node.children) FindStoredRows(*child, type, out);
}

/// Builds the value of type `type` whose atoms are the cells from *pos on.
template <typename AtomOf>
Value RowValue(const Type& type, const AtomId* row, size_t* pos,
               const AtomOf& atom_of) {
  if (type.IsAtom()) return atom_of(row[(*pos)++]);
  std::vector<Value> fields;
  fields.reserve(type.fields().size());
  for (const Type& field : type.fields()) {
    fields.push_back(RowValue(field, row, pos, atom_of));
  }
  return Value::Tuple(std::move(fields));
}

/// The root drain: the plan's canonical rows become the result bag. A row
/// found in a scanned bag reuses that bag's element value; any other row
/// is built from one Value::Atom per distinct atom. The element type is
/// the rows' type, Bottom when there are none.
Result<Bag> DrainRoot(const IrNode& root, ExecContext* ctx) {
  obs::Span span = PipelineSpan(ctx, "root");
  const Type& type = ctx->Layout(root).out();
  BAGALG_ASSIGN_OR_RETURN(std::vector<RowBatch> parts,
                          Collect(&Produce, root, ctx, &span));
  std::vector<StoredRows> stored;
  if (!parts.empty()) FindStoredRows(root, type, &stored);
  std::unordered_map<AtomId, Value> atoms;
  const auto atom_of = [&atoms](AtomId id) -> const Value& {
    auto [it, fresh] = atoms.try_emplace(id);
    if (fresh) it->second = Value::Atom(id);
    return it->second;
  };
  const std::vector<KeyedRow> order = Canonicalize(parts, CellWidth(type));
  std::vector<BagEntry> entries;
  entries.reserve(order.size());
  for (const KeyedRow& k : order) {
    const Value* found = nullptr;
    for (size_t s = 0; s < stored.size() && found == nullptr; ++s) {
      found = stored[s].Find(k.row);
    }
    size_t pos = 0;
    entries.push_back(
        {found != nullptr ? *found : RowValue(type, k.row, &pos, atom_of),
         std::move(*k.count)});
  }
  Type element = entries.empty() ? Type::Bottom() : entries[0].value.type();
  return Bag::FromCanonicalEntries(std::move(element), std::move(entries));
}

// ---------------------------------------------------------------- joins

/// Collects output rows of `width` cells and passes on only full batches;
/// Finish passes on the remainder. Like CheckpointTicker, the per-row call
/// builds no Status:
///
///   if (filler.Push(row, count)) BAGALG_RETURN_IF_ERROR(filler.Emit());
class BatchFiller {
 public:
  BatchFiller(const Sink& sink, size_t width) : sink_(sink), width_(width) {
    out_.width = width;
    out_.Reserve(kDefaultBatchSize);
  }

  /// Appends one row; true when the batch is full and Emit must run.
  bool Push(const AtomId* row, Mult c) {
    out_.Push(row, std::move(c));
    return out_.size() == kDefaultBatchSize;
  }

  /// Appends the row `left` ++ `right`; true when the batch is full.
  bool PushJoined(const AtomId* left, size_t left_width, const AtomId* right,
                  size_t right_width, Mult c) {
    out_.cells.insert(out_.cells.end(), left, left + left_width);
    out_.cells.insert(out_.cells.end(), right, right + right_width);
    out_.counts.push_back(std::move(c));
    return out_.size() == kDefaultBatchSize;
  }

  Status Emit() {
    Status status = sink_(out_);
    out_.Clear();
    out_.width = width_;  // a projecting sink may have changed it
    out_.Reserve(kDefaultBatchSize);
    return status;
  }

  Status Finish() { return out_.empty() ? Status::Ok() : Emit(); }

 private:
  const Sink& sink_;
  size_t width_;
  RowBatch out_;
};

/// The build side of a hash join: its rows grouped by the key cells
/// [begin, end), each group in canonical order, behind an open-addressing
/// table from a key to its group.
class KeyTable {
 public:
  KeyTable(const RowBatch& built, size_t begin, size_t end)
      : built_(built), begin_(begin), end_(end) {
    const size_t n = built.size();
    slots_.assign(std::bit_ceil(std::max<size_t>(2 * n, 2)), 0);
    std::vector<uint32_t> group_of(n);
    std::vector<uint32_t> first_row;  // per group: a row holding its key
    std::vector<uint32_t> sizes;
    for (size_t i = 0; i < n; ++i) {
      uint32_t& slot = Probe(built.row(i) + begin_, first_row);
      if (slot == 0) {
        first_row.push_back(static_cast<uint32_t>(i));
        sizes.push_back(0);
        slot = static_cast<uint32_t>(first_row.size());
      }
      group_of[i] = slot - 1;
      sizes[slot - 1]++;
    }
    // Counting sort of the rows by group keeps canonical order per group.
    starts_.resize(sizes.size() + 1, 0);
    for (size_t g = 0; g < sizes.size(); ++g) {
      starts_[g + 1] = starts_[g] + sizes[g];
    }
    std::vector<uint32_t> next(starts_.begin(), starts_.end() - 1);
    rows_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      rows_[next[group_of[i]]++] = static_cast<uint32_t>(i);
    }
    first_row_ = std::move(first_row);
  }

  /// The build rows whose key cells equal `key`, as [first, last).
  std::pair<const uint32_t*, const uint32_t*> Find(const AtomId* key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t slot = slots_[s];
      if (slot == 0) return {nullptr, nullptr};
      if (SameKey(built_.row(first_row_[slot - 1]) + begin_, key)) {
        return {rows_.data() + starts_[slot - 1],
                rows_.data() + starts_[slot]};
      }
    }
  }

 private:
  size_t Hash(const AtomId* key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t k = 0; k < end_ - begin_; ++k) {
      h = (h ^ key[k]) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return static_cast<size_t>(h);
  }

  bool SameKey(const AtomId* a, const AtomId* b) const {
    return std::equal(a, a + (end_ - begin_), b);
  }

  /// The slot holding `key`'s group, or the empty slot where it goes.
  uint32_t& Probe(const AtomId* key, const std::vector<uint32_t>& first_row) {
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      uint32_t& slot = slots_[s];
      if (slot == 0 ||
          SameKey(built_.row(first_row[slot - 1]) + begin_, key)) {
        return slot;
      }
    }
  }

  const RowBatch& built_;
  size_t begin_;
  size_t end_;
  std::vector<uint32_t> slots_;      ///< group + 1; 0 = empty
  std::vector<uint32_t> first_row_;  ///< per group: a row holding its key
  std::vector<uint32_t> starts_;     ///< per group: its first index in rows_
  std::vector<uint32_t> rows_;       ///< build rows, grouped by key
};

/// Hash equi-join: the build side drains into canonical rows grouped by
/// key, then the probe side streams through them. Replaces the σ∘× nested
/// loop — O(|probe| + |build| + |matches|) instead of O(|probe|·|build|).
/// Keys are compared as cell ranges; keys of different types never match.
Status ProduceHashJoin(const IrNode& node, ExecContext* ctx,
                       const Sink& sink) {
  BAGALG_ASSIGN_OR_RETURN(
      RowBatch built, Drain(&Produce, *node.children[1], ctx, "hash_build"));
  const Type& probe_type = ctx->Layout(*node.children[0]).out();
  const Type& build_type = ctx->Layout(*node.children[1]).out();
  // A Bottom side has no rows; the other side still streams.
  const bool keys_match =
      probe_type.IsTuple() && build_type.IsTuple() &&
      probe_type.fields()[node.probe_key - 1] ==
          build_type.fields()[node.build_key - 1];
  std::pair<size_t, size_t> probe_key{0, 0};
  std::pair<size_t, size_t> build_key{0, 0};
  if (keys_match) {
    probe_key = FieldCells(probe_type, node.probe_key);
    build_key = FieldCells(build_type, node.build_key);
  }
  const KeyTable table(built, build_key.first, build_key.second);
  obs::GlobalMetrics().GetCounter("ir.hash_joins")->Increment();
  BatchFiller out(sink, CellWidth(ctx->Layout(node).source));
  BAGALG_RETURN_IF_ERROR(
      Produce(*node.children[0], ctx, [&](RowBatch& probe) -> Status {
        if (!keys_match) return Status::Ok();
        for (size_t i = 0; i < probe.size(); ++i) {
          const AtomId* row = probe.row(i);
          const auto [first, last] = table.Find(row + probe_key.first);
          for (const uint32_t* b = first; b != last; ++b) {
            if (out.PushJoined(row, probe.width, built.row(*b), built.width,
                               probe.counts[i] * built.counts[*b])) {
              BAGALG_RETURN_IF_ERROR(out.Emit());
            }
          }
        }
        return Status::Ok();
      }));
  return out.Finish();
}

/// Cross join as a fused block-nested loop: the build side drains once, the
/// probe side streams, output counts multiply.
Status ProduceCrossJoin(const IrNode& node, ExecContext* ctx,
                        const Sink& sink) {
  BAGALG_ASSIGN_OR_RETURN(
      RowBatch built, Drain(&Produce, *node.children[1], ctx, "cross_build"));
  BatchFiller out(sink, CellWidth(ctx->Layout(node).source));
  BatchCheckpointTicker ticker;
  BAGALG_RETURN_IF_ERROR(
      Produce(*node.children[0], ctx, [&](RowBatch& probe) -> Status {
        for (size_t i = 0; i < probe.size(); ++i) {
          for (size_t j = 0; j < built.size(); ++j) {
            if (out.PushJoined(probe.row(i), probe.width, built.row(j),
                               built.width,
                               probe.counts[i] * built.counts[j])) {
              BAGALG_RETURN_IF_ERROR(out.Emit());
            }
          }
          BAGALG_RETURN_IF_ERROR(ticker.OnBatch(built.size()));
        }
        return Status::Ok();
      }));
  return out.Finish();
}

// ------------------------------------------------------------ merge walk

/// ∸, ∪ and ∩ over two canonical inputs: one merge walk, emitting in
/// canonical order. A row on one side only keeps its count under ∸ (left
/// side) and ∪ (either side); a row on both sides gets the operator's
/// combined count, and is dropped when that is zero.
Status MergeWalk(MergeKind kind, RowBatch& l, RowBatch& r, size_t width,
                 const Sink& sink) {
  BatchFiller out(sink, width);
  CheckpointTicker ticker;
  const bool keep_left = kind != MergeKind::kIntersect;
  const bool keep_right = kind == MergeKind::kMaxUnion;
  size_t i = 0;
  size_t j = 0;
  while (i < l.size() && j < r.size()) {
    if (ticker.Due()) BAGALG_RETURN_IF_ERROR(ticker.Flush());
    const int c = CompareRows(l.row(i), r.row(j), width);
    bool full = false;
    if (c < 0) {
      if (keep_left) full = out.Push(l.row(i), std::move(l.counts[i]));
      ++i;
    } else if (c > 0) {
      if (keep_right) full = out.Push(r.row(j), std::move(r.counts[j]));
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
      }
      if (!m.IsZero()) full = out.Push(l.row(i), std::move(m));
      ++i;
      ++j;
    }
    if (full) BAGALG_RETURN_IF_ERROR(out.Emit());
  }
  for (; keep_left && i < l.size(); ++i) {
    if (out.Push(l.row(i), std::move(l.counts[i]))) {
      BAGALG_RETURN_IF_ERROR(out.Emit());
    }
  }
  for (; keep_right && j < r.size(); ++j) {
    if (out.Push(r.row(j), std::move(r.counts[j]))) {
      BAGALG_RETURN_IF_ERROR(out.Emit());
    }
  }
  BAGALG_RETURN_IF_ERROR(ticker.Flush());
  return out.Finish();
}

// ------------------------------------------------------------- assembly

/// The node's source, without its fused stages.
Status ProduceSource(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  switch (node.kind) {
    case IrKind::kScan: {
      const Bag::FlatCells* flat = node.scan_bag.flat_cells();
      if (flat == nullptr) {
        return Status::Internal("scan " + node.scan_name + " rows hold a bag");
      }
      const auto& entries = node.scan_bag.entries();
      return EmitRows(
          flat->width, flat->cells.data(), entries.size(),
          [&entries](size_t i) -> const Mult& { return entries[i].count; },
          sink);
    }
    case IrKind::kUnionAll:
      for (const auto& child : node.children) {
        BAGALG_RETURN_IF_ERROR(Produce(*child, ctx, sink));
      }
      return Status::Ok();
    case IrKind::kCrossJoin:
      return ProduceCrossJoin(node, ctx, sink);
    case IrKind::kHashJoin:
      return ProduceHashJoin(node, ctx, sink);
    case IrKind::kMerge: {
      BAGALG_ASSIGN_OR_RETURN(
          RowBatch l, Drain(&Produce, *node.children[0], ctx, "merge"));
      BAGALG_ASSIGN_OR_RETURN(
          RowBatch r, Drain(&Produce, *node.children[1], ctx, "merge"));
      return MergeWalk(node.merge_kind, l, r,
                       CellWidth(ctx->Layout(node).source), sink);
    }
    case IrKind::kDupElim: {
      BAGALG_ASSIGN_OR_RETURN(
          RowBatch rows, Drain(&Produce, *node.children[0], ctx, "eps"));
      for (Mult& c : rows.counts) c = Mult(1);
      return EmitRows(rows, sink);
    }
  }
  return Status::Internal("unknown IR node kind");
}

/// The node's source with its fused stages run over every batch — the
/// vectorized heart of the engine. Batches the stages empty are counted
/// but not passed on.
Status ProduceStaged(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  if (node.stages.empty()) return ProduceSource(node, ctx, sink);
  const RowLayout& layout = ctx->Layout(node);
  BatchCheckpointTicker ticker;
  BAGALG_RETURN_IF_ERROR(
      ProduceSource(node, ctx, [&](RowBatch& batch) -> Status {
        const uint64_t in_rows = batch.size();
        for (size_t k = 0; k < node.stages.size() && !batch.empty(); ++k) {
          ApplyStage(layout.stages[k], node.stages[k].kind, &batch);
        }
        ctx->batches++;
        ctx->rows += batch.size();
        BAGALG_RETURN_IF_ERROR(ticker.OnBatch(in_rows));
        return batch.empty() ? Status::Ok() : sink(batch);
      }));
  return ticker.Flush();
}

/// A cse_shared node drains its staged subplan into the per-run cache on
/// first use; every use emits the cached rows.
Status Produce(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  if (!node.cse_shared || node.cse_key.empty()) {
    return ProduceStaged(node, ctx, sink);
  }
  auto it = ctx->cse_cache.find(node.cse_key);
  if (it == ctx->cse_cache.end()) {
    BAGALG_ASSIGN_OR_RETURN(RowBatch rows,
                            Drain(&ProduceStaged, node, ctx, "cse"));
    it = ctx->cse_cache.emplace(node.cse_key, std::move(rows)).first;
  } else {
    obs::GlobalMetrics().GetCounter("ir.cse_hits")->Increment();
  }
  return EmitRows(it->second, sink);
}

}  // namespace

Result<Bag> ExecuteIr(const IrPlan& plan, const Database& /*db*/,
                      const ExecIrOptions& options) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("empty IR plan");
  }
  BAGALG_ASSIGN_OR_RETURN(const RowLayoutMap layouts, ComputeRowLayouts(plan));
  ExecContext ctx;
  ctx.tracer = options.tracer != nullptr && options.tracer->enabled()
                   ? options.tracer
                   : nullptr;
  ctx.layouts = &layouts;
  Result<Bag> out = DrainRoot(*plan.root, &ctx);
  auto& metrics = obs::GlobalMetrics();
  metrics.GetCounter("ir.batches")->Increment(ctx.batches);
  metrics.GetCounter("ir.rows")->Increment(ctx.rows);
  metrics.GetCounter("ir.pipelines")->Increment(ctx.pipelines);
  return out;
}

}  // namespace bagalg::ir
