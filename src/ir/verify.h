#ifndef BAGALG_IR_VERIFY_H_
#define BAGALG_IR_VERIFY_H_

/// \file verify.h
/// The IR verifier and the translation-validation harness.
///
/// VerifyIr is the structural checker run after *every* pass (not just once
/// post-lowering): pipeline well-formedness (child counts, non-empty stage
/// programs, the tractability guard of CheckFusionLegality) plus the strict
/// dataflow walk of dataflow.h, which rejects column references off the end
/// of a known row shape, gather lists naming nonexistent columns, hash-join
/// keys outside their side's arity, joins whose probe_arity disagrees with
/// the probe child's actual output, and union children of conflicting
/// shapes, plus the row-layout derivation, which rejects union and merge
/// children whose row types differ below the top level (so their cells
/// disagree) and stages that do not type over their rows. A pass that
/// corrupts a plan structurally fails at the pass that broke it, with the
/// pass named in the error.
///
/// ValidateTranslation is the semantic net for bugs verification cannot see
/// (a dropped filter is a perfectly well-formed plan): it lowers with a
/// pass observer that snapshots the plan around each pass, executes both
/// snapshots against the bound database, and asserts bag-equality. Tests
/// point it at small databases and at the seeded mutation corpus
/// (passes.h's SetPassMutationForTesting) to prove the checker has teeth.
///
/// Enablement: per-pass verification defaults to on in assert-enabled
/// builds and off in Release; BAGALG_IR_VERIFY=1/0 overrides either way —
/// the bench gate runs (`run_benchmarks.sh --compare`) export it so gate
/// runs are verified runs.

#include <string>
#include <vector>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/ir/ir.h"
#include "src/ir/lower.h"
#include "src/util/status.h"

namespace bagalg::ir {

/// True when per-pass plan verification is on: BAGALG_IR_VERIFY=1/on/true
/// forces on, =0/off/false forces off; unset defaults to on in
/// assert-enabled builds (Debug and the default no-build-type configure)
/// and off with NDEBUG. Read once per process.
bool IrVerifyEnabled();

/// Structural verification of a plan: CheckFusionLegality, the strict
/// dataflow walk (ComputeIrFacts) and the row layout (ComputeRowLayouts).
/// kInternal / kUnsupported with an "ir verify" diagnostic on the first
/// inconsistency.
Status VerifyIr(const IrPlan& plan);

/// What ValidateTranslation observed across the pass pipeline.
struct ValidationReport {
  /// Passes that changed the plan and had both snapshots executed.
  size_t passes_executed = 0;
  /// Passes that changed the plan (superset of passes_executed: a pass is
  /// counted but not executed when both snapshots fail identically, e.g.
  /// under an injected fault).
  size_t passes_changed = 0;
};

/// Translation validation: lowers `expr` with per-pass verification forced
/// on and a snapshot observer that executes the plan before and after every
/// pass that changed it, asserting bag-equality of the results. Returns the
/// first verifier error or semantic divergence (kInternal, naming the
/// pass). Intended for tests and fuzzing against *small* databases — every
/// changed pass costs two executions. `base` supplies the remaining
/// lowering options (its verify/observer fields are overridden); tests use
/// it to disable the algebra rewriter so crafted stage patterns reach the
/// IR passes intact.
Status ValidateTranslation(const Expr& expr, const Database& db,
                           ValidationReport* report = nullptr,
                           const LowerOptions& base = {});

}  // namespace bagalg::ir

#endif  // BAGALG_IR_VERIFY_H_
