#include "src/core/bag_ops.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/governor.h"

namespace bagalg {

namespace {

// Binomial rows C(m, 0..m) are precomputed per entry for the powerbag; rows
// for larger m fall back to on-the-fly computation to bound table memory
// (a row for m holds m+1 values of up to ~m bits each).
constexpr uint64_t kBinomialRowMaxM = 4096;

// Rough per-subbag allocation charged to the governor's memory cap during
// powerset/powerbag enumeration: one Value::Rep + one Bag::Rep + the kept
// entry vector. Order-of-magnitude is all the cap needs; exact accounting
// would put a size computation on the innermost loop.
constexpr uint64_t kSubbagBytesEstimate = 160;

/// RAII per-kernel scope: opens a span on the ambient tracer (the query
/// driver's tracer when one is active on this thread, the global tracer
/// otherwise), and on exit mirrors the cumulative BigNat total into the
/// MetricsRegistry so `\metrics` and the bench exports see it.
class KernelScope {
 public:
  explicit KernelScope(const char* name)
      : span_(obs::StartAmbientSpan(name, "kernel")) {}

  obs::Span& span() { return span_; }

  ~KernelScope() {
    static obs::Counter* const slow =
        obs::GlobalMetrics().GetCounter("kernel.bignat_slow_path_ops");
    // Raised to the monotone process total (see Counter::RaiseTo) so
    // Prometheus exposition types it correctly.
    slow->RaiseTo(BigNat::SlowPathOps());
    // Only governed kernels refresh the governor counters: the check keeps
    // the mirror off ungoverned library-call paths.
    if (CurrentGovernor() != nullptr) obs::MirrorGovernorStats();
  }

 private:
  obs::Span span_;
};

obs::Counter* MergeIndexedCounter() {
  static obs::Counter* const c =
      obs::GlobalMetrics().GetCounter("kernel.merges_indexed");
  return c;
}

/// Merge-walks two canonical entry lists, combining multiplicities with
/// `combine` (absent elements contribute multiplicity 0) and keeping only
/// positive results. The walk visits both lists in value order, so the
/// output is canonical by construction and skips Builder's sort entirely.
Result<Bag> MergeCombine(const Bag& a, const Bag& b,
                         Mult (*combine)(const Mult&, const Mult&)) {
  BAGALG_ASSIGN_OR_RETURN(Type elem,
                          Type::Join(a.element_type(), b.element_type()));
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  std::vector<BagEntry> out;
  out.reserve(ea.size() + eb.size());
  const Mult zero;
  CheckpointTicker ticker(sizeof(BagEntry));
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (ticker.Due()) {
      BAGALG_RETURN_IF_ERROR(ticker.Flush());
    }
    int c;
    if (i == ea.size()) {
      c = 1;
    } else if (j == eb.size()) {
      c = -1;
    } else {
      c = ea[i].value.Compare(eb[j].value);
    }
    if (c < 0) {
      Mult m = combine(ea[i].count, zero);
      if (!m.IsZero()) out.push_back({ea[i].value, std::move(m)});
      ++i;
    } else if (c > 0) {
      Mult m = combine(zero, eb[j].count);
      if (!m.IsZero()) out.push_back({eb[j].value, std::move(m)});
      ++j;
    } else {
      Mult m = combine(ea[i].count, eb[j].count);
      if (!m.IsZero()) out.push_back({ea[i].value, std::move(m)});
      ++i;
      ++j;
    }
  }
  return Bag::FromCanonicalEntries(std::move(elem), std::move(out));
}

Mult CombineAdd(const Mult& p, const Mult& q) { return p + q; }
Mult CombineMonus(const Mult& p, const Mult& q) { return p.MonusSub(q); }
Mult CombineMax(const Mult& p, const Mult& q) { return Mult::Max(p, q); }
Mult CombineMin(const Mult& p, const Mult& q) { return Mult::Min(p, q); }

/// True when iterating `small` and probing `large`'s hash index beats the
/// O(|small| + |large|) merge walk: the large side is big enough to carry
/// an index and the small side is a fraction of it.
bool ProbeBeatsMerge(const Bag& small, const Bag& large) {
  return large.DistinctCount() >= Bag::kIndexThreshold &&
         small.DistinctCount() * 4 <= large.DistinctCount();
}

/// A union-shaped merge (⊎ or ∪) with an empty operand returns the other
/// operand's entries unchanged; when the joined element type also matches,
/// the whole rep is shared. Returns true and sets *result if the identity
/// applied (callers fall through to the merge walk otherwise).
bool UnionEmptyIdentity(const Bag& a, const Bag& b, const Type& elem,
                        Result<Bag>* result) {
  if (!a.empty() && !b.empty()) return false;
  const Bag& keep = a.empty() ? b : a;
  if (elem == keep.element_type()) {
    *result = keep;
  } else {
    std::vector<BagEntry> out = keep.entries();
    *result = Bag::FromCanonicalEntries(elem, std::move(out));
  }
  return true;
}

}  // namespace

Status CheckDistinctLimit(uint64_t distinct, const Limits& limits) {
  if (limits.max_distinct != 0 && distinct > limits.max_distinct) {
    return Status::ResourceExhausted(
        "bag would hold " + std::to_string(distinct) +
        " distinct elements (limit " + std::to_string(limits.max_distinct) +
        ")");
  }
  return Status::Ok();
}

Status CheckMultLimit(const Mult& m, const Limits& limits) {
  if (limits.max_mult_bits != 0 && m.BitLength() > limits.max_mult_bits) {
    return Status::ResourceExhausted(
        "multiplicity of " + std::to_string(m.BitLength()) +
        " bits exceeds limit of " + std::to_string(limits.max_mult_bits) +
        " bits");
  }
  return Status::Ok();
}

Result<Bag> AdditiveUnion(const Bag& a, const Bag& b) {
  KernelScope scope("kernel.additive_union");
  BAGALG_ASSIGN_OR_RETURN(Type elem,
                          Type::Join(a.element_type(), b.element_type()));
  Result<Bag> identity = Bag();
  if (UnionEmptyIdentity(a, b, elem, &identity)) return identity;
  return MergeCombine(a, b, &CombineAdd);
}

Result<Bag> Subtract(const Bag& a, const Bag& b) {
  KernelScope scope("kernel.subtract");
  BAGALG_ASSIGN_OR_RETURN(Type elem,
                          Type::Join(a.element_type(), b.element_type()));
  if (a.empty()) return Bag(std::move(elem));
  if (b.empty()) {
    if (elem == a.element_type()) return a;
    std::vector<BagEntry> out = a.entries();
    return Bag::FromCanonicalEntries(std::move(elem), std::move(out));
  }
  if (ProbeBeatsMerge(a, b)) {
    // a is a fraction of b: walk a, probe b's hash index, skip the merge
    // walk over b entirely. The output follows a's order, so it stays
    // canonical.
    MergeIndexedCounter()->Increment();
    std::vector<BagEntry> out;
    out.reserve(a.DistinctCount());
    CheckpointTicker ticker(sizeof(BagEntry));
    for (const BagEntry& e : a.entries()) {
      if (ticker.Due()) {
        BAGALG_RETURN_IF_ERROR(ticker.Flush());
      }
      Mult m = e.count.MonusSub(b.CountOf(e.value));
      if (!m.IsZero()) out.push_back({e.value, std::move(m)});
    }
    return Bag::FromCanonicalEntries(std::move(elem), std::move(out));
  }
  return MergeCombine(a, b, &CombineMonus);
}

Result<Bag> MaxUnion(const Bag& a, const Bag& b) {
  KernelScope scope("kernel.max_union");
  BAGALG_ASSIGN_OR_RETURN(Type elem,
                          Type::Join(a.element_type(), b.element_type()));
  Result<Bag> identity = Bag();
  if (UnionEmptyIdentity(a, b, elem, &identity)) return identity;
  return MergeCombine(a, b, &CombineMax);
}

Result<Bag> Intersect(const Bag& a, const Bag& b) {
  KernelScope scope("kernel.intersect");
  BAGALG_ASSIGN_OR_RETURN(Type elem,
                          Type::Join(a.element_type(), b.element_type()));
  if (a.empty() || b.empty()) return Bag(std::move(elem));
  const Bag& small = a.DistinctCount() <= b.DistinctCount() ? a : b;
  const Bag& large = &small == &a ? b : a;
  if (ProbeBeatsMerge(small, large)) {
    // The intersection is a subbag of the small side: walk it and probe the
    // large side's hash index instead of merge-walking both.
    MergeIndexedCounter()->Increment();
    std::vector<BagEntry> out;
    out.reserve(small.DistinctCount());
    CheckpointTicker ticker(sizeof(BagEntry));
    for (const BagEntry& e : small.entries()) {
      if (ticker.Due()) {
        BAGALG_RETURN_IF_ERROR(ticker.Flush());
      }
      Mult other = large.CountOf(e.value);
      if (!other.IsZero()) {
        out.push_back({e.value, Mult::Min(e.count, other)});
      }
    }
    return Bag::FromCanonicalEntries(std::move(elem), std::move(out));
  }
  return MergeCombine(a, b, &CombineMin);
}

Result<Bag> CartesianProduct(const Bag& a, const Bag& b,
                             const Limits& limits) {
  KernelScope scope("kernel.product");
  for (const Bag* operand : {&a, &b}) {
    if (!operand->empty() && !operand->element_type().IsTuple()) {
      return Status::InvalidArgument(
          "Cartesian product requires bags of tuples, got element type " +
          operand->element_type().ToString());
    }
  }
  uint64_t pairs = 0;
  if (__builtin_mul_overflow(static_cast<uint64_t>(a.DistinctCount()),
                             static_cast<uint64_t>(b.DistinctCount()),
                             &pairs)) {
    return Status::ResourceExhausted(
        "Cartesian product distinct-element count overflows uint64");
  }
  BAGALG_RETURN_IF_ERROR(CheckDistinctLimit(pairs, limits));
  if (a.empty() || b.empty()) {
    // Preserve a typed-empty result where possible.
    Type elem = Type::Bottom();
    if (a.element_type().IsTuple() && b.element_type().IsTuple()) {
      std::vector<Type> fields = a.element_type().fields();
      const auto& bf = b.element_type().fields();
      fields.insert(fields.end(), bf.begin(), bf.end());
      elem = Type::Tuple(std::move(fields));
    }
    return Bag(std::move(elem));
  }
  // Every element of a (resp. b) is a tuple of a.element_type()'s (resp.
  // b's) arity, so the result type is the concatenation of the two field
  // lists — no per-pair type joins needed.
  std::vector<Type> field_types = a.element_type().fields();
  {
    const auto& bf = b.element_type().fields();
    field_types.insert(field_types.end(), bf.begin(), bf.end());
  }
  Type elem = Type::Tuple(std::move(field_types));

  // The double loop over two canonical (strictly value-sorted) operands
  // emits pairs in block-lexicographic order, which for fixed-arity tuples
  // *is* the canonical value order — so the output is already sorted and
  // distinct and the sort/merge of Builder is skipped.
  std::vector<BagEntry> entries;
  entries.reserve(pairs);
  CheckpointTicker ticker(sizeof(BagEntry));
  for (const BagEntry& x : a.entries()) {
    for (const BagEntry& y : b.entries()) {
      if (ticker.Due()) {
        BAGALG_RETURN_IF_ERROR(ticker.Flush());
      }
      std::vector<Value> fields = x.value.fields();
      const auto& yf = y.value.fields();
      fields.insert(fields.end(), yf.begin(), yf.end());
      Mult count = x.count * y.count;
      BAGALG_RETURN_IF_ERROR(CheckMultLimit(count, limits));
      entries.push_back({Value::Tuple(std::move(fields)), std::move(count)});
    }
  }
  scope.span().AddAttr("pairs", pairs);
  return Bag::FromCanonicalEntries(std::move(elem), std::move(entries));
}

namespace {

/// Precomputed shape of a powerset / powerbag enumeration: the per-entry
/// maxima m_i and the number of distinct subbags Π (m_i + 1) when it fits
/// a uint64 (it always does under the default results cap; `enumerable`
/// is false only for uncapped runs beyond machine range).
struct SubbagEnum {
  std::vector<uint64_t> maxima;
  bool enumerable = true;
  uint64_t total = 0;
};

Result<SubbagEnum> PrepareSubbagEnum(const Bag& bag, const Limits& limits) {
  const auto& entries = bag.entries();
  // Pre-check the number of distinct subbags: Π (m_i + 1).
  if (limits.max_powerset_results != 0) {
    Mult total(1);
    const Mult cap(limits.max_powerset_results);
    for (const BagEntry& e : entries) {
      total = total * (e.count + Mult(1));
      if (total > cap) {
        return Status::ResourceExhausted(
            "powerset would enumerate more than " +
            std::to_string(limits.max_powerset_results) +
            " distinct subbags");
      }
    }
  }
  SubbagEnum en;
  en.maxima.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    auto m = entries[i].count.ToUint64();
    if (!m.ok()) {
      return Status::ResourceExhausted(
          "powerset operand multiplicity exceeds enumerable range");
    }
    en.maxima[i] = *m;
  }
  en.total = 1;
  for (uint64_t m : en.maxima) {
    uint64_t radix = 0;
    if (__builtin_add_overflow(m, uint64_t{1}, &radix) ||
        __builtin_mul_overflow(en.total, radix, &en.total)) {
      en.enumerable = false;
      break;
    }
  }
  return en;
}

/// Enumerates the first `total` subbags of the mixed-radix odometer (digit
/// i runs 0..m_i, digit 0 least significant), calling emit(chosen) for
/// each. `emit` is a template parameter so per-subbag dispatch inlines (no
/// std::function).
template <typename Emit>
Status ForEachSubbag(const std::vector<uint64_t>& maxima, uint64_t total,
                     Emit&& emit) {
  std::vector<uint64_t> chosen(maxima.size(), 0);
  for (uint64_t idx = 0; idx < total;) {
    BAGALG_RETURN_IF_ERROR(emit(chosen));
    if (++idx == total) break;
    // Odometer increment; idx < total guarantees a non-maxed digit exists.
    size_t pos = 0;
    while (chosen[pos] == maxima[pos]) {
      chosen[pos] = 0;
      ++pos;
    }
    ++chosen[pos];
  }
  return Status::Ok();
}

/// Unbounded odometer walk for enumerations whose total exceeds uint64
/// (only reachable with the results cap disabled).
template <typename Emit>
Status ForEachSubbagAll(const std::vector<uint64_t>& maxima, Emit&& emit) {
  std::vector<uint64_t> chosen(maxima.size(), 0);
  while (true) {
    BAGALG_RETURN_IF_ERROR(emit(chosen));
    size_t pos = 0;
    while (pos < chosen.size() && chosen[pos] == maxima[pos]) {
      chosen[pos] = 0;
      ++pos;
    }
    if (pos == chosen.size()) return Status::Ok();
    ++chosen[pos];
  }
}

/// Materializes a subbag from per-entry chosen multiplicities. The kept
/// entries are a subsequence of the parent's canonical entries, so the
/// result is canonical by construction — no Builder needed.
Value MaterializeSubbag(const Bag& bag, const std::vector<uint64_t>& chosen) {
  const auto& entries = bag.entries();
  size_t kept = 0;
  for (uint64_t c : chosen) kept += c != 0 ? 1 : 0;
  std::vector<BagEntry> sub;
  sub.reserve(kept);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (chosen[i] != 0) sub.push_back({entries[i].value, Mult(chosen[i])});
  }
  return Value::FromBag(
      Bag::FromCanonicalEntries(bag.element_type(), std::move(sub)));
}

/// Shared powerset / powerbag driver: enumerates every subbag in odometer
/// order, computes its result multiplicity with make_count(chosen, &mult),
/// and adds it to `builder`. The first error in odometer order wins.
template <typename MakeCount>
Status EnumerateSubbagsInto(const Bag& bag, const SubbagEnum& en,
                            Bag::Builder& builder, MakeCount&& make_count) {
  CheckpointTicker ticker(kSubbagBytesEstimate);
  auto emit = [&](const std::vector<uint64_t>& chosen) -> Status {
    if (ticker.Due()) {
      BAGALG_RETURN_IF_ERROR(ticker.Flush());
    }
    Mult count;
    BAGALG_RETURN_IF_ERROR(make_count(chosen, &count));
    builder.Add(MaterializeSubbag(bag, chosen), std::move(count));
    return Status::Ok();
  };
  if (!en.enumerable) return ForEachSubbagAll(en.maxima, emit);
  // Charge the builder's up-front reservation before making it: an admitted
  // but huge enumeration must trip the memory cap as a typed error, not die
  // inside vector growth. Saturate the estimate if it overflows.
  if (CurrentGovernor() != nullptr) {
    uint64_t reserve_bytes = 0;
    if (__builtin_mul_overflow(en.total, uint64_t{sizeof(BagEntry)},
                               &reserve_bytes)) {
      reserve_bytes = UINT64_MAX;
    }
    GovernorAccountBytes(reserve_bytes);
    BAGALG_RETURN_IF_ERROR(GovernorCheckpoint());
  }
  builder.Reserve(en.total);
  return ForEachSubbag(en.maxima, en.total, emit);
}

/// Binomial coefficient C(n, k) with BigNat n and machine k.
/// Fallback for powerbag entries whose multiplicity exceeds the
/// precomputed-row bound.
Mult Binomial(const Mult& n, uint64_t k) {
  // C(n, k) = Π_{i=1..k} (n - k + i) / i, computed with exact division by
  // keeping the running product divisible at every step.
  Mult num(1);
  Mult base = n.MonusSub(Mult(k));
  for (uint64_t i = 1; i <= k; ++i) {
    num = num * (base + Mult(i));
    auto dm = num.DivMod(Mult(i));
    assert(dm.ok() && dm->remainder.IsZero());
    num = std::move(dm->quotient);
  }
  return num;
}

}  // namespace

Result<Bag> Powerset(const Bag& bag, const Limits& limits) {
  KernelScope scope("kernel.powerset");
  BAGALG_ASSIGN_OR_RETURN(SubbagEnum en, PrepareSubbagEnum(bag, limits));
  if (en.enumerable) scope.span().AddAttr("subbags", en.total);
  Bag::Builder builder(bag.type());
  BAGALG_RETURN_IF_ERROR(EnumerateSubbagsInto(
      bag, en, builder, [](const std::vector<uint64_t>&, Mult* count) {
        *count = Mult(1);
        return Status::Ok();
      }));
  return std::move(builder).Build();
}

Result<Bag> Powerbag(const Bag& bag, const Limits& limits) {
  KernelScope scope("kernel.powerbag");
  BAGALG_ASSIGN_OR_RETURN(SubbagEnum en, PrepareSubbagEnum(bag, limits));
  if (en.enumerable) scope.span().AddAttr("subbags", en.total);
  const auto& entries = bag.entries();
  // Per-entry binomial rows C(m_i, 0..m_i) via the incremental recurrence
  // C(m, k) = C(m, k-1) · (m - k + 1) / k — O(m_i) big-number operations
  // per entry instead of O(k) per *subbag*. Rows beyond the size bound stay
  // empty and fall back to on-the-fly Binomial.
  std::vector<std::vector<Mult>> rows(entries.size());
  CheckpointTicker row_ticker(sizeof(Mult));
  for (size_t i = 0; i < entries.size(); ++i) {
    const uint64_t m = en.maxima[i];
    if (m > kBinomialRowMaxM) continue;
    auto& row = rows[i];
    row.reserve(m + 1);
    row.push_back(Mult(1));
    for (uint64_t k = 1; k <= m; ++k) {
      if (row_ticker.Due()) {
        BAGALG_RETURN_IF_ERROR(row_ticker.Flush());
      }
      auto dm = (row.back() * Mult(m - k + 1)).DivMod(Mult(k));
      assert(dm.ok() && dm->remainder.IsZero());
      row.push_back(std::move(dm->quotient));
    }
  }
  Bag::Builder builder(bag.type());
  BAGALG_RETURN_IF_ERROR(EnumerateSubbagsInto(
      bag, en,
      builder, [&](const std::vector<uint64_t>& chosen, Mult* count) -> Status {
        Mult occ(1);
        for (size_t i = 0; i < chosen.size(); ++i) {
          const uint64_t k = chosen[i];
          if (k == 0) continue;
          Mult f = !rows[i].empty() ? rows[i][k]
                                    : Binomial(entries[i].count, k);
          if (f.IsOne()) continue;  // covers C(m, m) = 1 too
          occ = occ.IsOne() ? std::move(f) : occ * f;
        }
        BAGALG_RETURN_IF_ERROR(CheckMultLimit(occ, limits));
        *count = std::move(occ);
        return Status::Ok();
      }));
  return std::move(builder).Build();
}

Result<Bag> BagDestroy(const Bag& bag, const Limits& limits) {
  KernelScope scope("kernel.bag_destroy");
  if (!bag.empty() && !bag.element_type().IsBag()) {
    return Status::InvalidArgument(
        "bag-destroy requires a bag of bags, got element type " +
        bag.element_type().ToString());
  }
  Type inner_elem = bag.element_type().IsBag()
                        ? bag.element_type().element()
                        : Type::Bottom();
  Bag::Builder builder(inner_elem);
  uint64_t distinct_bound = 0;
  CheckpointTicker ticker(sizeof(BagEntry));
  for (const BagEntry& e : bag.entries()) {
    if (__builtin_add_overflow(distinct_bound, e.value.bag().DistinctCount(),
                               &distinct_bound)) {
      return Status::ResourceExhausted(
          "bag-destroy distinct-element bound overflows uint64");
    }
    BAGALG_RETURN_IF_ERROR(CheckDistinctLimit(distinct_bound, limits));
    builder.Reserve(e.value.bag().DistinctCount());
    for (const BagEntry& inner : e.value.bag().entries()) {
      if (ticker.Due()) {
        BAGALG_RETURN_IF_ERROR(ticker.Flush());
      }
      Mult count = inner.count * e.count;
      BAGALG_RETURN_IF_ERROR(CheckMultLimit(count, limits));
      builder.Add(inner.value, std::move(count));
    }
  }
  return std::move(builder).Build();
}

Result<Bag> DupElim(const Bag& bag) {
  // The distinct values with multiplicity 1 each: the entry list already is
  // the answer, in canonical order.
  std::vector<BagEntry> out;
  out.reserve(bag.DistinctCount());
  for (const BagEntry& e : bag.entries()) {
    out.push_back({e.value, Mult(1)});
  }
  return Bag::FromCanonicalEntries(bag.element_type(), std::move(out));
}

Result<Bag> MapBag(const Bag& bag,
                   const std::function<Result<Value>(const Value&)>& fn,
                   const Type& declared_result_elem) {
  Bag::Builder builder(declared_result_elem);
  builder.Reserve(bag.DistinctCount());
  CheckpointTicker ticker(sizeof(BagEntry));
  for (const BagEntry& e : bag.entries()) {
    if (ticker.Due()) {
      BAGALG_RETURN_IF_ERROR(ticker.Flush());
    }
    BAGALG_ASSIGN_OR_RETURN(Value image, fn(e.value));
    builder.Add(std::move(image), e.count);
  }
  return std::move(builder).Build();
}

Result<Bag> SelectBag(const Bag& bag,
                      const std::function<Result<bool>(const Value&)>& pred) {
  // A subsequence of canonical entries is canonical; the declared element
  // type is unchanged by selection.
  std::vector<BagEntry> out;
  CheckpointTicker ticker(sizeof(BagEntry));
  for (const BagEntry& e : bag.entries()) {
    if (ticker.Due()) {
      BAGALG_RETURN_IF_ERROR(ticker.Flush());
    }
    BAGALG_ASSIGN_OR_RETURN(bool keep, pred(e.value));
    if (keep) out.push_back({e.value, e.count});
  }
  return Bag::FromCanonicalEntries(bag.element_type(), std::move(out));
}

Result<Bag> Nest(const Bag& bag, const std::vector<size_t>& nested_attrs) {
  if (!bag.empty() && !bag.element_type().IsTuple()) {
    return Status::InvalidArgument("nest requires a bag of tuples");
  }
  size_t arity =
      bag.element_type().IsTuple() ? bag.element_type().fields().size() : 0;
  std::vector<bool> is_nested(arity, false);
  for (size_t a : nested_attrs) {
    if (a >= arity) {
      return Status::InvalidArgument("nest attribute index out of range");
    }
    is_nested[a] = true;
  }
  // Group by the key (non-nested attributes), accumulating the nested
  // projections with their multiplicities.
  std::map<std::vector<Value>, Bag::Builder> groups;
  CheckpointTicker ticker(sizeof(BagEntry));
  for (const BagEntry& e : bag.entries()) {
    if (ticker.Due()) {
      BAGALG_RETURN_IF_ERROR(ticker.Flush());
    }
    const auto& fields = e.value.fields();
    std::vector<Value> key;
    std::vector<Value> nested;
    for (size_t i = 0; i < arity; ++i) {
      (is_nested[i] ? nested : key).push_back(fields[i]);
    }
    groups[std::move(key)].Add(Value::Tuple(std::move(nested)), e.count);
  }
  Bag::Builder out;
  for (auto& [key, group_builder] : groups) {
    BAGALG_ASSIGN_OR_RETURN(Bag group, std::move(group_builder).Build());
    std::vector<Value> fields = key;
    fields.push_back(Value::FromBag(std::move(group)));
    out.Add(Value::Tuple(std::move(fields)), Mult(1));
  }
  return std::move(out).Build();
}

Result<Bag> Unnest(const Bag& bag, size_t attr, const Limits& limits) {
  if (!bag.empty() && !bag.element_type().IsTuple()) {
    return Status::InvalidArgument("unnest requires a bag of tuples");
  }
  Bag::Builder out;
  uint64_t distinct_bound = 0;
  CheckpointTicker ticker(sizeof(BagEntry));
  for (const BagEntry& e : bag.entries()) {
    const auto& fields = e.value.fields();
    if (attr >= fields.size()) {
      return Status::InvalidArgument("unnest attribute index out of range");
    }
    if (!fields[attr].IsBag()) {
      return Status::InvalidArgument("unnest attribute is not a bag");
    }
    const Bag& inner = fields[attr].bag();
    if (__builtin_add_overflow(distinct_bound, inner.DistinctCount(),
                               &distinct_bound)) {
      return Status::ResourceExhausted(
          "unnest distinct-element bound overflows uint64");
    }
    BAGALG_RETURN_IF_ERROR(CheckDistinctLimit(distinct_bound, limits));
    out.Reserve(inner.DistinctCount());
    for (const BagEntry& ie : inner.entries()) {
      if (ticker.Due()) {
        BAGALG_RETURN_IF_ERROR(ticker.Flush());
      }
      std::vector<Value> new_fields;
      new_fields.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        new_fields.push_back(i == attr ? ie.value : fields[i]);
      }
      Mult count = e.count * ie.count;
      BAGALG_RETURN_IF_ERROR(CheckMultLimit(count, limits));
      out.Add(Value::Tuple(std::move(new_fields)), std::move(count));
    }
  }
  return std::move(out).Build();
}

}  // namespace bagalg
