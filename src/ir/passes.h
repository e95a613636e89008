#ifndef BAGALG_IR_PASSES_H_
#define BAGALG_IR_PASSES_H_

/// \file passes.h
/// IR-level optimization passes, run by LowerToIr after tree construction.
/// They are the only optimizer an `exec` plan meets: lowering keeps the
/// expression as written, so σ over ⊎ or over × reaches passes 2 and 3 as
/// the user wrote it.
///
/// RunPasses drives a whole-plan pass pipeline. The local rewrites iterate
/// to a fixpoint (each one no-ops — and stops counting — once the plan
/// stabilizes), then the fact-driven passes consume the dataflow.h row
/// layouts and facts, and CSE marking runs last so its keys see final
/// stage lists:
///
///  1. stage reordering — bubble filters leftwards: past other filters
///     freely, past gather-shaped projections by remapping their column
///     references through the gather. Produces the leading-filter form the
///     later passes key on.
///  2. union pushdown — stages on a kUnionAll clone into every child, so
///     each input streams through its own fused pipeline instead of paying
///     a post-union pass.
///  3. join-side pushdown — a leading filter on a cross join whose columns
///     all fall on one side moves into that side (build-side programs shift
///     by the probe arity). Shrinks the join's inputs.
///  4. hash-join detection — a leading field==field filter that spans the
///     two sides of a cross join turns the node into kHashJoin. The O(|L|·
///     |R|) loop becomes O(|L|+|R|) — the headline win on bench_exec joins.
///  5. dead-column elimination — composes adjacent gather projections and,
///     per join, narrows each side to the columns its stage list (plus the
///     hash keys) actually demands, appending narrowing gathers to the
///     children and remapping the join's stages. PassStats::dead_columns.
///  6. constant folding — stage programs reading proven-constant columns
///     fold to constants; a filter whose two sides are both constants is
///     erased (equal) or empties the whole pipeline into a scan of an
///     empty bag of the pipeline's row type (unequal).
///     PassStats::const_folds.
///  7. redundant dup-elim removal — a kDupElim whose input is provably
///     dup-free (dataflow.h) is spliced out, its stages appended to the
///     child. PassStats::dup_elims_removed.
///  8. CSE marking — duplicate subplans (by surface syntax plus the fused
///     stage list) are marked cse_shared; the executor materializes the
///     first occurrence once per run and serves the rest from the cached
///     bag.
///
/// Every pass is multiplicity-sound: filters commute with each other and
/// with projections under bag semantics because stage programs are pure and
/// per-row; pushing a one-sided filter below a product filters the same
/// (row, count) pairs the joined filter would have dropped; narrowing a
/// join side is a projection the join's own stages already implied; ε over
/// an all-counts-one bag is the identity. Soundness is *checked*, not just
/// argued: with verification on (verify.h), VerifyIr runs after every
/// pass, and the translation-validation harness executes before/after
/// snapshots via the PassObserver hook below.

#include <functional>
#include <string>

#include "src/ir/ir.h"
#include "src/util/status.h"

namespace bagalg::ir {

/// Called after each pass with the pass name and the plan before/after (the
/// before is a snapshot clone). A non-OK return aborts the pipeline —
/// that's how the translation validator rejects a semantics-changing pass.
using PassObserver =
    std::function<Status(const std::string& pass_name, const IrPlan& before,
                         const IrPlan& after)>;

struct PassOptions {
  /// Run VerifyIr after every pass; failures name the offending pass.
  bool verify_each = false;
  /// Snapshot observer (translation validation); null for none. Snapshots
  /// are only cloned when set — the plain path never pays for them.
  PassObserver observer;
};

/// Runs all passes over the plan in place, accumulating plan.passes.
/// Fails when a fact-driven pass meets a plan whose row layout does not
/// derive (the layout's error), when per-pass verification rejects a
/// pass's output, or when the observer does.
Status RunPasses(IrPlan* plan, const PassOptions& options = {});

/// The tractability guard: every node hosting fused stages must be in the
/// fusible fragment (no powerset/powerbag origins — those never lower, but
/// a future lowering bug must fail loudly, not silently drop
/// multiplicities). Returns kUnsupported with a diagnostic; kInternal for
/// a rootless plan. The structure of a plan is the row layout's to check
/// (dataflow.h's ComputeRowLayouts).
Status CheckFusionLegality(const IrPlan& plan);

/// Seeded pass mutations: intentionally broken pass variants behind a
/// test-only hook. Each one models a realistic compiler bug; the mutation
/// corpus in tests/verify_test.cc proves every one is rejected by VerifyIr
/// or by translation validation — the checker demonstrably has teeth.
/// Never set outside tests.
enum class PassMutation {
  kNone,
  /// Reordering deletes a filter instead of moving it past a gather.
  kDropFilterDuringReorder,
  /// Reordering remaps filter columns through a rotated gather list.
  kWrongGatherRemap,
  /// Hash-join detection emits a probe key beyond the probe arity.
  kHashJoinProbeKeyOutOfBounds,
  /// Hash-join detection emits the wrong (but often in-bounds) build key.
  kHashJoinWrongBuildKey,
  /// Join-side pushdown forgets to shift build-side column references.
  kNoShiftOnBuildPushdown,
  /// Union pushdown drops the last child after distributing stages.
  kUnionPushdownDropsChild,
  /// Dup-elim removal fires without the dup-freedom proof.
  kDupElimDropUnproven,
  /// Constant folding inverts the equal/unequal decision.
  kConstFoldInverted,
  /// Dead-column elimination forgets that hash keys are live.
  kDeadColumnDropsLive,
  /// CSE keys ignore fused stages, conflating distinct pipelines.
  kCseKeyIgnoresStages,
  /// Union pushdown hands the last input a gather whose first field reads
  /// the last column: the arity stays, but a nested field loses cells.
  kUnionGatherDropsNestedCells,
};

/// Installs `mutation` process-globally for subsequent RunPasses calls.
/// Test-only; always restore kNone.
void SetPassMutationForTesting(PassMutation mutation);

}  // namespace bagalg::ir

#endif  // BAGALG_IR_PASSES_H_
