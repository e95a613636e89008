#ifndef BAGALG_ALGEBRA_EVAL_H_
#define BAGALG_ALGEBRA_EVAL_H_

/// \file eval.h
/// The BALG evaluator.
///
/// A tree-walking interpreter over canonical bags, dispatching every
/// operator to src/core/bag_ops.h and enforcing a Limits budget. A MAP or
/// σ over a flat bag whose body compiles to a row program (row_program.h)
/// runs on the bag's rows instead of walking the body per element; it
/// records the steps and op counts the walk would have. The
/// evaluator is *instrumented*: it records operator applications, the
/// largest intermediate bag (distinct elements, multiplicity bit-length, and
/// optionally the paper's standard-encoding size), and fixpoint iteration
/// counts. The complexity experiments (Theorem 4.4's LOGSPACE proxy,
/// Theorem 5.1's PSPACE proxy, Proposition 3.2's explosion measurements)
/// read these statistics rather than wall-clock alone.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/core/bag_ops.h"
#include "src/core/limits.h"
#include "src/obs/trace.h"
#include "src/util/bignat.h"
#include "src/util/governor.h"
#include "src/util/result.h"

namespace bagalg {

/// Counters collected during one (or more) evaluations.
struct EvalStats {
  /// Total operator applications (AST node visits, fixpoint bodies counted
  /// once per iteration).
  uint64_t steps = 0;
  /// Applications per operator kind.
  std::array<uint64_t, 32> op_counts{};
  static_assert(kExprKindCount <= std::tuple_size_v<decltype(op_counts)>,
                "op_counts is too small for the ExprKind enumerators; "
                "grow the array");
  /// Largest number of distinct elements in any intermediate bag.
  uint64_t max_distinct = 0;
  /// Largest multiplicity bit-length seen in any intermediate bag.
  uint64_t max_mult_bits = 0;
  /// Largest standard-encoding size of an intermediate bag (only tracked
  /// when Evaluator::set_track_sizes(true); expensive).
  BigNat max_standard_size;
  /// Largest counted-representation size of an intermediate bag (same gate).
  uint64_t max_counted_size = 0;
  /// Total fixpoint iterations across all IFP nodes.
  uint64_t fixpoint_iterations = 0;

  uint64_t CountOf(ExprKind kind) const {
    size_t i = static_cast<size_t>(kind);
    return i < op_counts.size() ? op_counts[i] : 0;
  }

  /// Restores the all-zero state.
  void Reset() { *this = EvalStats{}; }

  /// Accumulates another run's counters into this one: totals add, maxima
  /// take the larger value. Used to aggregate across REPL statements and to
  /// combine per-shard evaluator stats.
  void Merge(const EvalStats& other);

  /// Multi-line human-readable dump.
  std::string ToString() const;
};

/// Per-AST-node runtime profile collected by Evaluator when node profiling
/// is on — the data behind `explain analyze`.
struct NodeProfile {
  /// Times the node was applied (fixpoint bodies once per iteration).
  uint64_t calls = 0;
  /// Cumulative wall time, children included.
  uint64_t wall_ns = 0;
  /// Largest distinct-element count over the node's bag results.
  uint64_t max_distinct = 0;
  /// Largest total cardinality (clamped to uint64) over bag results.
  uint64_t max_total = 0;
};

/// Keyed by node identity (ExprNode pointer), like the typecheck caches.
using NodeProfileMap = std::unordered_map<const ExprNode*, NodeProfile>;

/// Evaluates expressions against a database under a resource budget.
class Evaluator {
 public:
  explicit Evaluator(Limits limits = Limits::Default())
      : limits_(limits) {}

  /// Enables tracking of intermediate standard-encoding sizes (quadratic
  /// overhead in the worst case; off by default).
  void set_track_sizes(bool on) { track_sizes_ = on; }

  /// Attaches a tracer: every AST-node application becomes a span (fixpoint
  /// iterations as child spans) carrying a distinct-count attribute, except
  /// inside MAP / σ bodies — those run once per input entry, and the
  /// operator's span covers them. Pass nullptr (the default) for
  /// zero-overhead evaluation — the hot path then pays a single pointer
  /// test per node.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Enables per-node profiling (calls, cumulative wall time, max result
  /// bag sizes, keyed by ExprNode identity) — the data consumed by
  /// ExplainAnalyzeExpr. Off by default.
  void set_node_profiling(bool on) { node_profiling_ = on; }
  bool node_profiling() const { return node_profiling_; }
  const NodeProfileMap& node_profiles() const { return node_profiles_; }

  /// Attaches a per-query ResourceGovernor (deadline / memory cap /
  /// cancellation; see util/governor.h). Eval installs it as the ambient
  /// governor for the evaluation's duration, so every kernel checkpoint
  /// below enforces it. The pointer is borrowed; the caller keeps it alive
  /// across Eval and clears it with nullptr (the default: ungoverned, zero
  /// overhead).
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }
  ResourceGovernor* governor() const { return governor_; }

  /// Evaluates `expr` (which may denote any object) against `db`.
  Result<Value> Eval(const Expr& expr, const Database& db);

  /// Evaluates and requires a bag-denoting result (the common query case).
  Result<Bag> EvalToBag(const Expr& expr, const Database& db);

  /// Statistics accumulated since construction / last ResetStats.
  const EvalStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.Reset();
    node_profiles_.clear();
  }

  const Limits& limits() const { return limits_; }

 private:
  friend class EvalFrame;
  Limits limits_;
  bool track_sizes_ = false;
  bool node_profiling_ = false;
  obs::Tracer* tracer_ = nullptr;
  ResourceGovernor* governor_ = nullptr;
  EvalStats stats_;
  NodeProfileMap node_profiles_;
};

}  // namespace bagalg

#endif  // BAGALG_ALGEBRA_EVAL_H_
