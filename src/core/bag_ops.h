#ifndef BAGALG_CORE_BAG_OPS_H_
#define BAGALG_CORE_BAG_OPS_H_

/// \file bag_ops.h
/// The semantic core of BALG: every algebra operation of the paper (§3) as
/// a function on canonical bags.
///
/// Multiplicity arithmetic follows the paper exactly. For o with p
/// occurrences in B and q in B':
///   additive union  ⊎ : p + q
///   subtraction     − : max(0, p − q)      (monus)
///   maximal union   ∪ : max(p, q)
///   intersection    ∩ : min(p, q)
///   product         × : p · q   (per tuple pair, concatenating fields)
///   powerset        P : one occurrence of each distinct subbag
///   powerbag       P_b : each subbag with Π C(m_i, k_i) occurrences
///                        (Definition 5.1, occurrence-distinguishing)
///   bag-destroy     δ : additive flattening, scaled by outer counts
///   dup-elim        ε : every positive multiplicity becomes 1
///   MAP φ           : image multiplicities add up
///   σ_{φ=φ'}        : keeps multiplicity where the test holds
/// The AST-level evaluator (src/algebra/eval.h) dispatches to these.
///
/// Every kernel runs on the calling thread. Intersect/Subtract probe the
/// lazy hash index of the larger operand instead of merge-walking when the
/// other side is much smaller. Kernel counters land in the MetricsRegistry
/// and each kernel opens a tracer span when the global tracer is enabled
/// (see docs/PERFORMANCE.md).

#include <functional>
#include <vector>

#include "src/core/limits.h"
#include "src/core/value.h"
#include "src/util/result.h"

namespace bagalg {

/// B ⊎ B': additive union. TypeError on incompatible element types.
Result<Bag> AdditiveUnion(const Bag& a, const Bag& b);

/// B − B': monus subtraction.
Result<Bag> Subtract(const Bag& a, const Bag& b);

/// B ∪ B': maximal union.
Result<Bag> MaxUnion(const Bag& a, const Bag& b);

/// B ∩ B': intersection (minimum multiplicities).
Result<Bag> Intersect(const Bag& a, const Bag& b);

/// B × B': Cartesian product of bags of tuples; field lists concatenate and
/// multiplicities multiply. InvalidArgument if a non-empty operand contains
/// non-tuple elements.
Result<Bag> CartesianProduct(const Bag& a, const Bag& b,
                             const Limits& limits = Limits::Default());

/// P(B): the bag of type {{{{T}}}} holding one occurrence of each distinct
/// subbag of B. The number of distinct subbags is Π (m_i + 1) over the
/// distinct elements; exceeding limits.max_powerset_results yields
/// ResourceExhausted.
Result<Bag> Powerset(const Bag& bag, const Limits& limits = Limits::Default());

/// P_b(B): the powerbag (Definition 5.1) — distinguishes occurrences, so a
/// subbag taking k_i of the m_i copies of element i appears Π C(m_i, k_i)
/// times, and the total count is 2^|B|.
Result<Bag> Powerbag(const Bag& bag, const Limits& limits = Limits::Default());

/// δ(B): one level of flattening; requires every element to be a bag.
Result<Bag> BagDestroy(const Bag& bag,
                       const Limits& limits = Limits::Default());

/// ε(B): duplicate elimination.
Result<Bag> DupElim(const Bag& bag);

/// MAP φ (B): applies `fn` to each distinct element; multiplicities of
/// equal images add up. `declared_result_elem` types the result when B is
/// empty (pass Type::Bottom() if unknown).
Result<Bag> MapBag(const Bag& bag,
                   const std::function<Result<Value>(const Value&)>& fn,
                   const Type& declared_result_elem = Type::Bottom());

/// σ(B): keeps the elements (with their multiplicities) on which `pred`
/// returns true.
Result<Bag> SelectBag(const Bag& bag,
                      const std::function<Result<bool>(const Value&)>& pred);

// ----- Extensions discussed by the paper -----------------------------------

/// nest_{i1..in}(B) (§7): groups a bag of k-ary tuples by the attributes
/// *not* listed, pairing each distinct group key with the bag of projections
/// onto the listed attributes (group contents keep multiplicities; each
/// group appears once). Attribute indices are 0-based here (the paper's
/// α_i is 1-based at the surface-syntax level).
Result<Bag> Nest(const Bag& bag, const std::vector<size_t>& nested_attrs);

/// unnest_i(B): inverse direction — expands attribute i (a bag) of each
/// tuple, multiplying multiplicities.
Result<Bag> Unnest(const Bag& bag, size_t attr,
                   const Limits& limits = Limits::Default());

// ----- Shared limit checks (used by the evaluator too) ----------------------

/// ResourceExhausted if `distinct` exceeds the budget.
Status CheckDistinctLimit(uint64_t distinct, const Limits& limits);

/// ResourceExhausted if a multiplicity's bit length exceeds the budget.
Status CheckMultLimit(const Mult& m, const Limits& limits);

}  // namespace bagalg

#endif  // BAGALG_CORE_BAG_OPS_H_
