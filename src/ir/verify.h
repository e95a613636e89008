#ifndef BAGALG_IR_VERIFY_H_
#define BAGALG_IR_VERIFY_H_

/// \file verify.h
/// The IR verifier and the translation-validation harness.
///
/// VerifyIr is the structural checker run after *every* pass (not just once
/// post-lowering): the tractability guard of CheckFusionLegality plus one
/// row-layout derivation (dataflow.h's ComputeRowLayouts), the walk the
/// executor runs on. The layout rejects wrong child counts (a union needs
/// two inputs or more), union and merge children whose row types do not
/// join (so their cells disagree), joins over non-tuple rows or with a
/// probe_arity other than the probe row's field count, hash keys outside
/// their side's fields, and stage programs that are empty or do not type
/// over their rows — a column reference off the row, a gather naming a
/// missing column. A pass that corrupts a plan structurally fails at the
/// pass that broke it, with the pass named in the error.
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

/// Structural verification of a plan: CheckFusionLegality and the row
/// layout (ComputeRowLayouts). kUnsupported from the tractability guard,
/// kInternal with an "ir verify" diagnostic on the first structural
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
/// changed pass costs two executions.
Status ValidateTranslation(const Expr& expr, const Database& db,
                           ValidationReport* report = nullptr);

}  // namespace bagalg::ir

#endif  // BAGALG_IR_VERIFY_H_
