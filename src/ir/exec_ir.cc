#include "src/ir/exec_ir.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <string>
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
  std::map<std::string, FlatRows> cse_cache;
  uint64_t batches = 0;
  uint64_t rows = 0;
  uint64_t pipelines = 0;

  const RowLayout& Layout(const IrNode& node) const {
    return layouts->at(&node);
  }
};

/// Receives each non-empty batch of a stream, in stream order. The sink may
/// move rows out of the batch; the producer clears it before refilling.
using Sink = std::function<Status(FlatRows&)>;

/// Pushes a node's output stream into `sink`.
using Producer = Status (*)(const IrNode&, ExecContext*, const Sink&);

Status Produce(const IrNode& node, ExecContext* ctx, const Sink& sink);

/// Emits `rows` in kDefaultBatchSize chunks (scans, merge and ε results,
/// CSE cache entries).
Status EmitRows(const FlatRows& rows, const Sink& sink) {
  const size_t width = rows.width;
  FlatRows batch;
  for (size_t pos = 0; pos < rows.size();) {
    const size_t end = std::min(rows.size(), pos + kDefaultBatchSize);
    batch.Clear();
    batch.width = width;  // a projecting sink may have changed it
    batch.cells.assign(rows.row(pos), rows.row(end));
    batch.counts.assign(rows.counts.begin() + static_cast<ptrdiff_t>(pos),
                        rows.counts.begin() + static_cast<ptrdiff_t>(end));
    pos = end;
    BAGALG_RETURN_IF_ERROR(sink(batch));
  }
  return Status::Ok();
}

// ---------------------------------------------------------- fused stages

/// Applies one compiled stage to a batch in place. Filters compact with a
/// write index; projections rewrite every row through the cell map.
void ApplyStage(const StageLayout& stage, StageKind kind, FlatRows* batch) {
  if (kind == StageKind::kFilter) {
    stage.filter.Apply(batch);
    return;
  }
  const CellMap& map = stage.project;
  if (map.IsIdentity(batch->width)) return;
  batch->cells = map.Project(*batch);
  batch->width = map.cells.size();
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
Result<std::vector<FlatRows>> Collect(Producer produce, const IrNode& node,
                                      ExecContext* ctx, obs::Span* span) {
  std::vector<FlatRows> parts;
  BatchCheckpointTicker ticker;
  uint64_t rows = 0;
  BAGALG_RETURN_IF_ERROR(produce(node, ctx, [&](FlatRows& batch) {
    const size_t n = batch.size();
    rows += n;
    // The producer refills a fresh batch.
    parts.push_back(std::move(batch));
    batch = FlatRows{parts.back().width, {}, {}};
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
Result<FlatRows> Drain(Producer produce, const IrNode& node, ExecContext* ctx,
                       const std::string& what) {
  obs::Span span = PipelineSpan(ctx, what);
  BAGALG_ASSIGN_OR_RETURN(std::vector<FlatRows> parts,
                          Collect(produce, node, ctx, &span));
  FlatRows rows = Canonicalize(parts, CellWidth(ctx->Layout(node).out()));
  if (rows.size() >= kGovernorAccountMinEntries) {
    GovernorAccountBytes(rows.cells.size() * sizeof(AtomId) +
                         rows.counts.size() * sizeof(Mult));
  }
  return rows;
}

/// The root drain: the plan's canonical rows become the result bag's
/// storage as they are; no Value is built. The element type is the rows'
/// type, Bottom when there are none.
Result<Bag> DrainRoot(const IrNode& root, ExecContext* ctx) {
  obs::Span span = PipelineSpan(ctx, "root");
  const Type& type = ctx->Layout(root).out();
  BAGALG_ASSIGN_OR_RETURN(std::vector<FlatRows> parts,
                          Collect(&Produce, root, ctx, &span));
  FlatRows rows = Canonicalize(parts, CellWidth(type));
  if (rows.empty()) return Bag();
  return Bag::FromCanonicalRows(type, std::move(rows));
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
  FlatRows out_;
};

/// The build side of a hash join: its rows grouped by the key cells
/// [begin, end), each group in canonical order, behind an open-addressing
/// table from a key to its group.
class KeyTable {
 public:
  KeyTable(const FlatRows& built, size_t begin, size_t end)
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

  const FlatRows& built_;
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
      FlatRows built, Drain(&Produce, *node.children[1], ctx, "hash_build"));
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
      Produce(*node.children[0], ctx, [&](FlatRows& probe) -> Status {
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
      FlatRows built, Drain(&Produce, *node.children[1], ctx, "cross_build"));
  BatchFiller out(sink, CellWidth(ctx->Layout(node).source));
  BatchCheckpointTicker ticker;
  BAGALG_RETURN_IF_ERROR(
      Produce(*node.children[0], ctx, [&](FlatRows& probe) -> Status {
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

// ------------------------------------------------------------- assembly

/// The node's source, without its fused stages.
Status ProduceSource(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  switch (node.kind) {
    case IrKind::kScan: {
      const FlatRows* rows = node.scan_bag.flat_rows();
      if (rows == nullptr) {
        return Status::Internal("scan " + node.scan_name + " rows hold a bag");
      }
      return EmitRows(*rows, sink);
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
          FlatRows l, Drain(&Produce, *node.children[0], ctx, "merge"));
      BAGALG_ASSIGN_OR_RETURN(
          FlatRows r, Drain(&Produce, *node.children[1], ctx, "merge"));
      // ∸, ∪ and ∩: the merge walk the evaluator runs too (flat_rows.h).
      const size_t width = CellWidth(ctx->Layout(node).source);
      BatchFiller out(sink, width);
      return MergeWalk(node.merge_kind, l, r, width, &out);
    }
    case IrKind::kDupElim: {
      BAGALG_ASSIGN_OR_RETURN(
          FlatRows rows, Drain(&Produce, *node.children[0], ctx, "eps"));
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
      ProduceSource(node, ctx, [&](FlatRows& batch) -> Status {
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
    BAGALG_ASSIGN_OR_RETURN(FlatRows rows,
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
