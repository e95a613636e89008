#ifndef BAGALG_CORE_LIMITS_H_
#define BAGALG_CORE_LIMITS_H_

/// \file limits.h
/// Resource budgets for bag operations and query evaluation.
///
/// The algebra contains operations with exponential and hyperexponential
/// output (powerset, powerbag, iterated bag-destroy — paper Prop 3.2 and
/// Thm 5.5). A Limits budget turns would-be memory exhaustion into a clean
/// StatusCode::kResourceExhausted, which the complexity benchmarks also use
/// to probe where each fragment's blow-up frontier lies.

#include <cstdint>

namespace bagalg {

/// Budgets enforced by bag operations and the evaluator. A value of 0 means
/// "unlimited" for that dimension.
struct Limits {
  /// Maximum number of distinct elements in any produced bag.
  uint64_t max_distinct = 1u << 22;
  /// Maximum number of distinct subbags a powerset/powerbag may enumerate.
  uint64_t max_powerset_results = 1u << 22;
  /// Maximum bit-length of any multiplicity produced.
  uint64_t max_mult_bits = 1u << 22;
  /// Maximum number of operator applications in one evaluation (0 = off).
  uint64_t max_eval_steps = 0;
  /// Maximum number of fixpoint iterations (IFP); 0 = unlimited.
  uint64_t max_fixpoint_iterations = 1u << 20;

  /// A permissive default (the values above).
  static Limits Default() { return Limits{}; }

  /// A tight budget for failure-injection tests.
  static Limits Tiny() { return Limits{64, 64, 512, 10000, 64}; }
};

}  // namespace bagalg

#endif  // BAGALG_CORE_LIMITS_H_
