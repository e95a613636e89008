#include "src/ir/exec_ir.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/bag_ops.h"
#include "src/obs/metrics.h"
#include "src/util/governor.h"

namespace bagalg::ir {

namespace {

/// Per-run executor state shared by every producer of one ExecuteIr call.
struct ExecContext {
  obs::Tracer* tracer;
  /// CSE cache: cse_key -> materialized result of the shared subplan
  /// (stages included). Lives for one run only.
  std::map<std::string, Bag> cse_cache;
  uint64_t batches = 0;
  uint64_t rows = 0;
  uint64_t pipelines = 0;
};

/// Receives each non-empty batch of a stream, in stream order. The sink may
/// move rows out of the batch; the producer clears it before refilling.
using Sink = std::function<Status(RowBatch&)>;

/// Pushes a node's output stream into `sink`.
using Producer = Status (*)(const IrNode&, ExecContext*, const Sink&);

Status Produce(const IrNode& node, ExecContext* ctx, const Sink& sink);

/// Emits a materialized bag in kDefaultBatchSize chunks (scans, merge and
/// ε results, CSE cache entries).
Status EmitBag(const Bag& bag, const Sink& sink) {
  const auto& entries = bag.entries();
  RowBatch batch;
  for (size_t pos = 0; pos < entries.size();) {
    const size_t end = std::min(entries.size(), pos + kDefaultBatchSize);
    batch.Clear();
    batch.Reserve(end - pos);
    for (; pos < end; ++pos) {
      batch.Push(entries[pos].value, entries[pos].count);
    }
    BAGALG_RETURN_IF_ERROR(sink(batch));
  }
  return Status::Ok();
}

// ---------------------------------------------------------- fused stages

/// Applies one stage to a batch in place. Filters compact with a write
/// index; projections rewrite values through the program fast paths.
Status ApplyStage(const Stage& stage, RowBatch* batch) {
  switch (stage.kind) {
    case StageKind::kFilter: {
      const auto lf = stage.program.FieldRef();
      const auto rf = stage.rhs.FieldRef();
      size_t w = 0;
      for (size_t i = 0; i < batch->size(); ++i) {
        bool keep;
        if (lf.has_value() && rf.has_value()) {
          // Fast path: field-vs-field comparison without program dispatch.
          const Value& row = batch->values[i];
          if (!row.IsTuple() || *lf > row.fields().size() ||
              *rf > row.fields().size() || *lf < 1 || *rf < 1) {
            return Status::InvalidArgument(
                "bad attribute projection in pipeline lambda");
          }
          keep = batch->values[i].fields()[*lf - 1] ==
                 batch->values[i].fields()[*rf - 1];
        } else {
          BAGALG_ASSIGN_OR_RETURN(Value l, stage.program.Run(batch->values[i]));
          BAGALG_ASSIGN_OR_RETURN(Value r, stage.rhs.Run(batch->values[i]));
          keep = l == r;
        }
        if (keep) {
          if (w != i) {
            batch->values[w] = std::move(batch->values[i]);
            batch->counts[w] = std::move(batch->counts[i]);
          }
          ++w;
        }
      }
      batch->values.resize(w);
      batch->counts.resize(w);
      return Status::Ok();
    }
    case StageKind::kProject: {
      if (stage.program.IsIdentity()) return Status::Ok();
      if (const auto field = stage.program.FieldRef(); field.has_value()) {
        for (Value& v : batch->values) {
          if (!v.IsTuple() || *field < 1 || *field > v.fields().size()) {
            return Status::InvalidArgument(
                "bad attribute projection in pipeline lambda");
          }
          v = v.fields()[*field - 1];
        }
        return Status::Ok();
      }
      if (const auto& gather = stage.program.Gather(); gather.has_value()) {
        for (Value& v : batch->values) {
          if (!v.IsTuple()) {
            return Status::InvalidArgument(
                "bad attribute projection in pipeline lambda");
          }
          const auto& fields = v.fields();
          std::vector<Value> picked;
          picked.reserve(gather->size());
          for (size_t c : *gather) {
            if (c < 1 || c > fields.size()) {
              return Status::InvalidArgument(
                  "bad attribute projection in pipeline lambda");
            }
            picked.push_back(fields[c - 1]);
          }
          v = Value::Tuple(std::move(picked));
        }
        return Status::Ok();
      }
      for (Value& v : batch->values) {
        BAGALG_ASSIGN_OR_RETURN(Value image, stage.program.Run(v));
        v = std::move(image);
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown stage kind");
}

// ------------------------------------------------------------- draining

/// Drains a node's stream into a canonical bag under a per-pipeline span.
/// The blocking boundaries (merge kernels, build sides, dup-elim, CSE, the
/// root) all come through here, so each materialization shows up as one
/// "ir.pipeline.<what>" span with rows/batches attributes.
Result<Bag> Drain(Producer produce, const IrNode& node, ExecContext* ctx,
                  const std::string& what) {
  obs::Span span;
  if (ctx->tracer != nullptr) {
    span = ctx->tracer->StartSpan("ir.pipeline." + what, "ir");
  }
  ctx->pipelines++;
  Bag::Builder builder;
  BatchCheckpointTicker ticker;
  uint64_t rows = 0;
  uint64_t batches = 0;
  BAGALG_RETURN_IF_ERROR(produce(node, ctx, [&](RowBatch& batch) {
    builder.Reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      builder.Add(std::move(batch.values[i]), std::move(batch.counts[i]));
    }
    rows += batch.size();
    batches++;
    return ticker.OnBatch(batch.size());
  }));
  BAGALG_RETURN_IF_ERROR(ticker.Flush());
  if (span.active()) {
    span.AddAttr("rows", rows);
    span.AddAttr("batches", batches);
  }
  return std::move(builder).Build();
}

// ---------------------------------------------------------------- joins

/// Collects join output rows and passes on only full batches; Finish
/// passes on the remainder. Like CheckpointTicker, the per-row call builds
/// no Status:
///
///   if (filler.Push(row, count)) BAGALG_RETURN_IF_ERROR(filler.Emit());
class BatchFiller {
 public:
  explicit BatchFiller(const Sink& sink) : sink_(sink) {
    out_.Reserve(kDefaultBatchSize);
  }

  /// Appends one row; true when the batch is full and Emit must run.
  bool Push(Value v, Mult c) {
    out_.Push(std::move(v), std::move(c));
    return out_.size() == kDefaultBatchSize;
  }

  Status Emit() {
    Status status = sink_(out_);
    out_.Clear();
    return status;
  }

  Status Finish() { return out_.empty() ? Status::Ok() : Emit(); }

 private:
  const Sink& sink_;
  RowBatch out_;
};

Value Concat(const Value& left, const Value& right) {
  std::vector<Value> fields = left.fields();
  fields.insert(fields.end(), right.fields().begin(), right.fields().end());
  return Value::Tuple(std::move(fields));
}

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hash equi-join: the build side drains into a multiplicity-aware hash
/// table, then the probe side streams through it. Replaces the σ∘× nested
/// loop — O(|probe| + |build| + |matches|) instead of O(|probe|·|build|).
Status ProduceHashJoin(const IrNode& node, ExecContext* ctx,
                       const Sink& sink) {
  BAGALG_ASSIGN_OR_RETURN(
      Bag built, Drain(&Produce, *node.children[1], ctx, "hash_build"));
  std::unordered_map<Value, std::vector<std::pair<Value, Mult>>, ValueHasher>
      table;
  table.reserve(built.entries().size());
  for (const BagEntry& e : built.entries()) {
    if (!e.value.IsTuple()) {
      return Status::InvalidArgument("product requires tuple rows");
    }
    if (node.build_key < 1 || node.build_key > e.value.fields().size()) {
      return Status::InvalidArgument(
          "bad attribute projection in pipeline lambda");
    }
    table[e.value.fields()[node.build_key - 1]].push_back({e.value, e.count});
  }
  obs::GlobalMetrics().GetCounter("ir.hash_joins")->Increment();
  BatchFiller out(sink);
  BAGALG_RETURN_IF_ERROR(
      Produce(*node.children[0], ctx, [&](RowBatch& probe) -> Status {
        for (size_t i = 0; i < probe.size(); ++i) {
          const Value& row = probe.values[i];
          if (!row.IsTuple()) {
            return Status::InvalidArgument("product requires tuple rows");
          }
          if (node.probe_key < 1 || node.probe_key > row.fields().size()) {
            return Status::InvalidArgument(
                "bad attribute projection in pipeline lambda");
          }
          auto it = table.find(row.fields()[node.probe_key - 1]);
          if (it == table.end()) continue;
          for (const auto& [build_row, build_count] : it->second) {
            if (out.Push(Concat(row, build_row),
                         probe.counts[i] * build_count)) {
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
      Bag built, Drain(&Produce, *node.children[1], ctx, "cross_build"));
  const auto& build_entries = built.entries();
  for (const BagEntry& e : build_entries) {
    if (!e.value.IsTuple()) {
      return Status::InvalidArgument("product requires tuple rows");
    }
  }
  BatchFiller out(sink);
  BatchCheckpointTicker ticker;
  BAGALG_RETURN_IF_ERROR(
      Produce(*node.children[0], ctx, [&](RowBatch& probe) -> Status {
        for (const Value& v : probe.values) {
          if (!v.IsTuple()) {
            return Status::InvalidArgument("product requires tuple rows");
          }
        }
        for (size_t i = 0; i < probe.size(); ++i) {
          for (const BagEntry& e : build_entries) {
            if (out.Push(Concat(probe.values[i], e.value),
                         probe.counts[i] * e.count)) {
              BAGALG_RETURN_IF_ERROR(out.Emit());
            }
          }
          BAGALG_RETURN_IF_ERROR(ticker.OnBatch(build_entries.size()));
        }
        return Status::Ok();
      }));
  return out.Finish();
}

// ------------------------------------------------------------- assembly

Result<Bag> Merge(MergeKind kind, const Bag& l, const Bag& r) {
  switch (kind) {
    case MergeKind::kMonus:
      return Subtract(l, r);
    case MergeKind::kMaxUnion:
      return MaxUnion(l, r);
    case MergeKind::kIntersect:
      return Intersect(l, r);
  }
  return Status::Internal("unknown merge kind");
}

/// The node's source, without its fused stages.
Status ProduceSource(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  switch (node.kind) {
    case IrKind::kScan:
      return EmitBag(node.scan_bag, sink);
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
          Bag l, Drain(&Produce, *node.children[0], ctx, "merge"));
      BAGALG_ASSIGN_OR_RETURN(
          Bag r, Drain(&Produce, *node.children[1], ctx, "merge"));
      BAGALG_ASSIGN_OR_RETURN(Bag merged, Merge(node.merge_kind, l, r));
      return EmitBag(merged, sink);
    }
    case IrKind::kDupElim: {
      BAGALG_ASSIGN_OR_RETURN(
          Bag in, Drain(&Produce, *node.children[0], ctx, "eps"));
      BAGALG_ASSIGN_OR_RETURN(Bag out, DupElim(in));
      return EmitBag(out, sink);
    }
  }
  return Status::Internal("unknown IR node kind");
}

/// The node's source with its fused stages run over every batch — the
/// vectorized heart of the engine. Batches the stages empty are counted
/// but not passed on.
Status ProduceStaged(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  if (node.stages.empty()) return ProduceSource(node, ctx, sink);
  BatchCheckpointTicker ticker;
  BAGALG_RETURN_IF_ERROR(
      ProduceSource(node, ctx, [&](RowBatch& batch) -> Status {
        const uint64_t in_rows = batch.size();
        for (const Stage& stage : node.stages) {
          BAGALG_RETURN_IF_ERROR(ApplyStage(stage, &batch));
        }
        ctx->batches++;
        ctx->rows += batch.size();
        BAGALG_RETURN_IF_ERROR(ticker.OnBatch(in_rows));
        return batch.empty() ? Status::Ok() : sink(batch);
      }));
  return ticker.Flush();
}

/// A cse_shared node drains its staged subplan into the per-run cache on
/// first use; every use emits the cached bag.
Status Produce(const IrNode& node, ExecContext* ctx, const Sink& sink) {
  if (!node.cse_shared || node.cse_key.empty()) {
    return ProduceStaged(node, ctx, sink);
  }
  auto it = ctx->cse_cache.find(node.cse_key);
  if (it == ctx->cse_cache.end()) {
    BAGALG_ASSIGN_OR_RETURN(Bag bag, Drain(&ProduceStaged, node, ctx, "cse"));
    it = ctx->cse_cache.emplace(node.cse_key, std::move(bag)).first;
  } else {
    obs::GlobalMetrics().GetCounter("ir.cse_hits")->Increment();
  }
  return EmitBag(it->second, sink);
}

}  // namespace

Result<Bag> ExecuteIr(const IrPlan& plan, const Database& /*db*/,
                      const ExecIrOptions& options) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("empty IR plan");
  }
  ExecContext ctx;
  ctx.tracer = options.tracer != nullptr && options.tracer->enabled()
                   ? options.tracer
                   : nullptr;
  Result<Bag> out = Drain(&Produce, *plan.root, &ctx, "root");
  auto& metrics = obs::GlobalMetrics();
  metrics.GetCounter("ir.batches")->Increment(ctx.batches);
  metrics.GetCounter("ir.rows")->Increment(ctx.rows);
  metrics.GetCounter("ir.pipelines")->Increment(ctx.pipelines);
  return out;
}

}  // namespace bagalg::ir
