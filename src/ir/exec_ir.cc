#include "src/ir/exec_ir.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/bag_ops.h"
#include "src/obs/metrics.h"
#include "src/util/governor.h"

namespace bagalg::ir {

namespace {

/// Per-run executor state shared by all cursors of one ExecuteIr call.
struct ExecContext {
  obs::Tracer* tracer;
  size_t batch_size;
  /// CSE cache: cse_key -> materialized result of the shared subplan
  /// (stages included). Lives for one run only.
  std::map<std::string, Bag> cse_cache;
  uint64_t batches = 0;
  uint64_t rows = 0;
  uint64_t pipelines = 0;
};

/// Batch-at-a-time pull cursor. Next() clears `out` and fills up to
/// batch_size rows; returns false at end of stream. Cursors may return a
/// full, partial, or (never) empty batch before EOF.
class BatchCursor {
 public:
  virtual ~BatchCursor() = default;
  virtual Status Open() = 0;
  virtual Result<bool> Next(RowBatch* out) = 0;
  virtual void Close() = 0;
};

using CursorPtr = std::unique_ptr<BatchCursor>;

Result<CursorPtr> MakeCursor(const IrNode& node, ExecContext* ctx);

// ------------------------------------------------------------------ scan

class ScanCursor : public BatchCursor {
 public:
  ScanCursor(Bag bag, size_t batch_size)
      : bag_(std::move(bag)), batch_size_(batch_size) {}

  Status Open() override {
    pos_ = 0;
    return Status::Ok();
  }

  Result<bool> Next(RowBatch* out) override {
    out->Clear();
    const auto& entries = bag_.entries();
    if (pos_ >= entries.size()) return false;
    const size_t end = std::min(entries.size(), pos_ + batch_size_);
    out->Reserve(end - pos_);
    for (; pos_ < end; ++pos_) {
      out->Push(entries[pos_].value, entries[pos_].count);
    }
    return true;
  }

  void Close() override {}

 private:
  Bag bag_;
  size_t batch_size_;
  size_t pos_ = 0;
};

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

/// Wraps a source cursor and runs the node's fused stage list over every
/// batch — the vectorized heart of the engine. Loops over fully-filtered
/// batches so callers never observe an empty non-EOF batch.
class StagedCursor : public BatchCursor {
 public:
  StagedCursor(CursorPtr source, const std::vector<Stage>* stages,
               ExecContext* ctx)
      : source_(std::move(source)), stages_(stages), ctx_(ctx) {}

  Status Open() override {
    ticker_ = BatchCheckpointTicker();
    return source_->Open();
  }

  Result<bool> Next(RowBatch* out) override {
    for (;;) {
      BAGALG_ASSIGN_OR_RETURN(bool more, source_->Next(out));
      if (!more) {
        BAGALG_RETURN_IF_ERROR(ticker_.Flush());
        return false;
      }
      const uint64_t in_rows = out->size();
      for (const Stage& stage : *stages_) {
        BAGALG_RETURN_IF_ERROR(ApplyStage(stage, out));
      }
      ctx_->batches++;
      ctx_->rows += out->size();
      BAGALG_RETURN_IF_ERROR(ticker_.OnBatch(in_rows));
      if (!out->empty()) return true;
    }
  }

  void Close() override { source_->Close(); }

 private:
  CursorPtr source_;
  const std::vector<Stage>* stages_;
  ExecContext* ctx_;
  BatchCheckpointTicker ticker_;
};

// ------------------------------------------------------------- draining

/// Drains a cursor into a canonical bag under a per-pipeline span. The
/// blocking boundaries (merge kernels, build sides, dup-elim, the root)
/// all come through here, so each materialization shows up as one
/// "ir.pipeline.<what>" span with rows/batches attributes.
Result<Bag> DrainToBag(BatchCursor* cursor, ExecContext* ctx,
                       const std::string& what) {
  obs::Span span;
  if (ctx->tracer != nullptr) {
    span = ctx->tracer->StartSpan("ir.pipeline." + what, "ir");
  }
  ctx->pipelines++;
  BAGALG_RETURN_IF_ERROR(cursor->Open());
  Bag::Builder builder;
  RowBatch batch;
  BatchCheckpointTicker ticker;
  uint64_t rows = 0;
  uint64_t batches = 0;
  for (;;) {
    BAGALG_ASSIGN_OR_RETURN(bool more, cursor->Next(&batch));
    if (!more) break;
    builder.Reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      builder.Add(std::move(batch.values[i]), std::move(batch.counts[i]));
    }
    rows += batch.size();
    batches++;
    BAGALG_RETURN_IF_ERROR(ticker.OnBatch(batch.size()));
  }
  BAGALG_RETURN_IF_ERROR(ticker.Flush());
  cursor->Close();
  if (span.active()) {
    span.AddAttr("rows", rows);
    span.AddAttr("batches", batches);
  }
  return std::move(builder).Build();
}

// ---------------------------------------------------------------- joins

/// Hash equi-join: build side materialized into a multiplicity-aware hash
/// table at Open, probe side streamed. Replaces the σ∘× nested loop —
/// O(|probe| + |build| + |matches|) instead of O(|probe|·|build|).
class HashJoinCursor : public BatchCursor {
 public:
  HashJoinCursor(const IrNode& node, CursorPtr probe, CursorPtr build,
                 ExecContext* ctx)
      : node_(node),
        probe_(std::move(probe)),
        build_(std::move(build)),
        ctx_(ctx) {}

  Status Open() override {
    BAGALG_ASSIGN_OR_RETURN(Bag built,
                            DrainToBag(build_.get(), ctx_, "hash_build"));
    table_.clear();
    table_.reserve(built.entries().size());
    for (const BagEntry& e : built.entries()) {
      if (!e.value.IsTuple()) {
        return Status::InvalidArgument("product requires tuple rows");
      }
      if (node_.build_key < 1 ||
          node_.build_key > e.value.fields().size()) {
        return Status::InvalidArgument(
            "bad attribute projection in pipeline lambda");
      }
      table_[e.value.fields()[node_.build_key - 1]].push_back(
          {e.value, e.count});
    }
    obs::GlobalMetrics().GetCounter("ir.hash_joins")->Increment();
    probe_batch_.Clear();
    probe_pos_ = 0;
    matches_ = nullptr;
    match_pos_ = 0;
    return probe_->Open();
  }

  Result<bool> Next(RowBatch* out) override {
    out->Clear();
    out->Reserve(ctx_->batch_size);
    for (;;) {
      // Resume emitting matches carried over from the previous call.
      while (matches_ != nullptr && match_pos_ < matches_->size()) {
        if (out->size() >= ctx_->batch_size) return true;
        const auto& [build_row, build_count] = (*matches_)[match_pos_++];
        out->Push(Concat(probe_batch_.values[probe_pos_], build_row),
                  probe_batch_.counts[probe_pos_] * build_count);
      }
      matches_ = nullptr;
      if (probe_pos_ + 1 < probe_batch_.size()) {
        ++probe_pos_;
      } else {
        BAGALG_ASSIGN_OR_RETURN(bool more, probe_->Next(&probe_batch_));
        if (!more) return !out->empty();
        probe_pos_ = 0;
      }
      const Value& row = probe_batch_.values[probe_pos_];
      if (!row.IsTuple()) {
        return Status::InvalidArgument("product requires tuple rows");
      }
      if (node_.probe_key < 1 || node_.probe_key > row.fields().size()) {
        return Status::InvalidArgument(
            "bad attribute projection in pipeline lambda");
      }
      auto it = table_.find(row.fields()[node_.probe_key - 1]);
      if (it != table_.end()) {
        matches_ = &it->second;
        match_pos_ = 0;
      }
    }
  }

  void Close() override {
    probe_->Close();
    table_.clear();
  }

 private:
  static Value Concat(const Value& left, const Value& right) {
    std::vector<Value> fields = left.fields();
    fields.insert(fields.end(), right.fields().begin(),
                  right.fields().end());
    return Value::Tuple(std::move(fields));
  }

  struct ValueHasher {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };

  const IrNode& node_;
  CursorPtr probe_;
  CursorPtr build_;
  ExecContext* ctx_;
  std::unordered_map<Value, std::vector<std::pair<Value, Mult>>, ValueHasher>
      table_;
  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  const std::vector<std::pair<Value, Mult>>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Cross join as a fused block-nested loop: build side materialized once,
/// probe side streamed, output counts multiply.
class CrossJoinCursor : public BatchCursor {
 public:
  CrossJoinCursor(CursorPtr probe, CursorPtr build, ExecContext* ctx)
      : probe_(std::move(probe)), build_(std::move(build)), ctx_(ctx) {}

  Status Open() override {
    BAGALG_ASSIGN_OR_RETURN(built_,
                            DrainToBag(build_.get(), ctx_, "cross_build"));
    for (const BagEntry& e : built_.entries()) {
      if (!e.value.IsTuple()) {
        return Status::InvalidArgument("product requires tuple rows");
      }
    }
    probe_batch_.Clear();
    probe_pos_ = 0;
    build_pos_ = 0;
    ticker_ = BatchCheckpointTicker();
    return probe_->Open();
  }

  Result<bool> Next(RowBatch* out) override {
    out->Clear();
    out->Reserve(ctx_->batch_size);
    const auto& build_entries = built_.entries();
    for (;;) {
      if (probe_pos_ >= probe_batch_.size()) {
        BAGALG_ASSIGN_OR_RETURN(bool more, probe_->Next(&probe_batch_));
        if (!more) return !out->empty();
        probe_pos_ = 0;
        build_pos_ = 0;
        for (const Value& v : probe_batch_.values) {
          if (!v.IsTuple()) {
            return Status::InvalidArgument("product requires tuple rows");
          }
        }
      }
      while (probe_pos_ < probe_batch_.size()) {
        const Value& left = probe_batch_.values[probe_pos_];
        const Mult& left_count = probe_batch_.counts[probe_pos_];
        while (build_pos_ < build_entries.size()) {
          if (out->size() >= ctx_->batch_size) return true;
          const BagEntry& e = build_entries[build_pos_++];
          std::vector<Value> fields = left.fields();
          fields.insert(fields.end(), e.value.fields().begin(),
                        e.value.fields().end());
          out->Push(Value::Tuple(std::move(fields)), left_count * e.count);
        }
        BAGALG_RETURN_IF_ERROR(ticker_.OnBatch(build_entries.size()));
        build_pos_ = 0;
        ++probe_pos_;
      }
    }
  }

  void Close() override { probe_->Close(); }

 private:
  CursorPtr probe_;
  CursorPtr build_;
  ExecContext* ctx_;
  Bag built_;
  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  size_t build_pos_ = 0;
  BatchCheckpointTicker ticker_;
};

// ------------------------------------------------- union / merge / eps

class UnionAllCursor : public BatchCursor {
 public:
  UnionAllCursor(std::vector<CursorPtr> children)
      : children_(std::move(children)) {}

  Status Open() override {
    current_ = 0;
    for (auto& c : children_) BAGALG_RETURN_IF_ERROR(c->Open());
    return Status::Ok();
  }

  Result<bool> Next(RowBatch* out) override {
    while (current_ < children_.size()) {
      BAGALG_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
      if (more) return true;
      ++current_;
    }
    out->Clear();
    return false;
  }

  void Close() override {
    for (auto& c : children_) c->Close();
  }

 private:
  std::vector<CursorPtr> children_;
  size_t current_ = 0;
};

/// Blocking cursor over a pre-materialized bag (merge kernels, dup-elim,
/// CSE cache hits).
class BagCursor : public BatchCursor {
 public:
  BagCursor(Bag bag, size_t batch_size)
      : scan_(std::move(bag), batch_size) {}
  Status Open() override { return scan_.Open(); }
  Result<bool> Next(RowBatch* out) override { return scan_.Next(out); }
  void Close() override { scan_.Close(); }

 private:
  ScanCursor scan_;
};

class MergeCursor : public BatchCursor {
 public:
  MergeCursor(MergeKind kind, CursorPtr left, CursorPtr right,
              ExecContext* ctx)
      : kind_(kind),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}

  Status Open() override {
    BAGALG_ASSIGN_OR_RETURN(Bag l, DrainToBag(left_.get(), ctx_, "merge"));
    BAGALG_ASSIGN_OR_RETURN(Bag r, DrainToBag(right_.get(), ctx_, "merge"));
    Result<Bag> merged = [&]() -> Result<Bag> {
      switch (kind_) {
        case MergeKind::kMonus:
          return Subtract(l, r);
        case MergeKind::kMaxUnion:
          return MaxUnion(l, r);
        case MergeKind::kIntersect:
          return Intersect(l, r);
      }
      return Status::Internal("unknown merge kind");
    }();
    BAGALG_RETURN_IF_ERROR(merged.status());
    out_ = std::make_unique<BagCursor>(std::move(merged).value(),
                                       ctx_->batch_size);
    return out_->Open();
  }

  Result<bool> Next(RowBatch* out) override { return out_->Next(out); }

  void Close() override {
    if (out_ != nullptr) out_->Close();
  }

 private:
  MergeKind kind_;
  CursorPtr left_;
  CursorPtr right_;
  ExecContext* ctx_;
  std::unique_ptr<BagCursor> out_;
};

class DupElimCursor : public BatchCursor {
 public:
  DupElimCursor(CursorPtr child, ExecContext* ctx)
      : child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    BAGALG_ASSIGN_OR_RETURN(Bag in, DrainToBag(child_.get(), ctx_, "eps"));
    BAGALG_ASSIGN_OR_RETURN(Bag out, DupElim(in));
    out_ = std::make_unique<BagCursor>(std::move(out), ctx_->batch_size);
    return out_->Open();
  }

  Result<bool> Next(RowBatch* out) override { return out_->Next(out); }

  void Close() override {
    if (out_ != nullptr) out_->Close();
  }

 private:
  CursorPtr child_;
  ExecContext* ctx_;
  std::unique_ptr<BagCursor> out_;
};

// ------------------------------------------------------------------ CSE

/// Cursor for a cse_shared node: the first occurrence materializes the
/// full subplan (stages included) into the per-run cache; later
/// occurrences stream the cached bag.
class CseCursor : public BatchCursor {
 public:
  CseCursor(const IrNode& node, ExecContext* ctx) : node_(node), ctx_(ctx) {}

  Status Open() override;

  Result<bool> Next(RowBatch* out) override { return out_->Next(out); }

  void Close() override {
    if (out_ != nullptr) out_->Close();
  }

 private:
  const IrNode& node_;
  ExecContext* ctx_;
  std::unique_ptr<BagCursor> out_;
};

// ------------------------------------------------------------- assembly

Result<CursorPtr> MakeBase(const IrNode& node, ExecContext* ctx) {
  switch (node.kind) {
    case IrKind::kScan:
      return CursorPtr(
          std::make_unique<ScanCursor>(node.scan_bag, ctx->batch_size));
    case IrKind::kUnionAll: {
      std::vector<CursorPtr> children;
      children.reserve(node.children.size());
      for (const auto& c : node.children) {
        BAGALG_ASSIGN_OR_RETURN(CursorPtr child, MakeCursor(*c, ctx));
        children.push_back(std::move(child));
      }
      return CursorPtr(
          std::make_unique<UnionAllCursor>(std::move(children)));
    }
    case IrKind::kCrossJoin: {
      BAGALG_ASSIGN_OR_RETURN(CursorPtr probe,
                              MakeCursor(*node.children[0], ctx));
      BAGALG_ASSIGN_OR_RETURN(CursorPtr build,
                              MakeCursor(*node.children[1], ctx));
      return CursorPtr(std::make_unique<CrossJoinCursor>(
          std::move(probe), std::move(build), ctx));
    }
    case IrKind::kHashJoin: {
      BAGALG_ASSIGN_OR_RETURN(CursorPtr probe,
                              MakeCursor(*node.children[0], ctx));
      BAGALG_ASSIGN_OR_RETURN(CursorPtr build,
                              MakeCursor(*node.children[1], ctx));
      return CursorPtr(std::make_unique<HashJoinCursor>(
          node, std::move(probe), std::move(build), ctx));
    }
    case IrKind::kMerge: {
      BAGALG_ASSIGN_OR_RETURN(CursorPtr left,
                              MakeCursor(*node.children[0], ctx));
      BAGALG_ASSIGN_OR_RETURN(CursorPtr right,
                              MakeCursor(*node.children[1], ctx));
      return CursorPtr(std::make_unique<MergeCursor>(
          node.merge_kind, std::move(left), std::move(right), ctx));
    }
    case IrKind::kDupElim: {
      BAGALG_ASSIGN_OR_RETURN(CursorPtr child,
                              MakeCursor(*node.children[0], ctx));
      return CursorPtr(
          std::make_unique<DupElimCursor>(std::move(child), ctx));
    }
  }
  return Status::Internal("unknown IR node kind");
}

/// Base cursor plus the node's fused stages (no CSE wrapping).
Result<CursorPtr> MakeStaged(const IrNode& node, ExecContext* ctx) {
  BAGALG_ASSIGN_OR_RETURN(CursorPtr base, MakeBase(node, ctx));
  if (node.stages.empty()) return base;
  return CursorPtr(
      std::make_unique<StagedCursor>(std::move(base), &node.stages, ctx));
}

Status CseCursor::Open() {
  auto it = ctx_->cse_cache.find(node_.cse_key);
  if (it == ctx_->cse_cache.end()) {
    BAGALG_ASSIGN_OR_RETURN(CursorPtr inner, MakeStaged(node_, ctx_));
    BAGALG_ASSIGN_OR_RETURN(Bag bag,
                            DrainToBag(inner.get(), ctx_, "cse"));
    it = ctx_->cse_cache.emplace(node_.cse_key, std::move(bag)).first;
  } else {
    obs::GlobalMetrics().GetCounter("ir.cse_hits")->Increment();
  }
  out_ = std::make_unique<BagCursor>(it->second, ctx_->batch_size);
  return out_->Open();
}

Result<CursorPtr> MakeCursor(const IrNode& node, ExecContext* ctx) {
  if (node.cse_shared && !node.cse_key.empty()) {
    return CursorPtr(std::make_unique<CseCursor>(node, ctx));
  }
  return MakeStaged(node, ctx);
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
  ctx.batch_size = plan.batch_size == 0 ? kDefaultBatchSize : plan.batch_size;
  BAGALG_ASSIGN_OR_RETURN(CursorPtr root, MakeCursor(*plan.root, &ctx));
  Result<Bag> out = DrainToBag(root.get(), &ctx, "root");
  auto& metrics = obs::GlobalMetrics();
  metrics.GetCounter("ir.batches")->Increment(ctx.batches);
  metrics.GetCounter("ir.rows")->Increment(ctx.rows);
  metrics.GetCounter("ir.pipelines")->Increment(ctx.pipelines);
  return out;
}

}  // namespace bagalg::ir
