#include "src/core/value.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>

#include "src/obs/metrics.h"
#include "src/util/governor.h"

namespace bagalg {

namespace {

size_t CombineHash(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

const Mult& ZeroMult() {
  static const Mult* zero = new Mult();
  return *zero;
}

// The text renderer appends every level into one buffer: an atom is a
// view of its name, a count is formatted in place.
void AppendBagText(const Bag& bag, const AtomTable& table, std::string* out);

void AppendText(const Value& value, const AtomTable& table,
                std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      if (const auto name = table.NameView(value.atom_id())) {
        out->append(*name);
      } else {
        out->append(table.NameOf(value.atom_id()));
      }
      return;
    case Value::Kind::kTuple: {
      out->push_back('[');
      bool first = true;
      for (const Value& field : value.fields()) {
        if (!first) out->append(", ");
        first = false;
        AppendText(field, table, out);
      }
      out->push_back(']');
      return;
    }
    case Value::Kind::kBag:
      AppendBagText(value.bag(), table, out);
      return;
  }
}

void AppendBagText(const Bag& bag, const AtomTable& table, std::string* out) {
  out->append("{{");
  bool first = true;
  for (const BagEntry& e : bag.entries()) {
    if (!first) out->append(", ");
    first = false;
    AppendText(e.value, table, out);
    if (!e.count.IsOne()) {
      out->push_back('*');
      e.count.AppendDecimal(out);
    }
  }
  out->append("}}");
}

}  // namespace

// ---------------------------------------------------------------- Value::Rep

struct Value::Rep {
  Value::Kind kind;
  AtomId atom = 0;
  std::vector<Value> fields;
  // Bag payload stored via pointer to keep Rep constructible before Bag is
  // complete at declaration time and to avoid a recursive by-value member.
  std::shared_ptr<const Bag> bag;
  Type type;
  size_t hash = 0;
};

// ------------------------------------------------------------------ Bag::Rep

struct Bag::Rep {
  Type element_type = Type::Bottom();
  std::vector<BagEntry> entries;
  Mult total;
  size_t hash = 0;
  // Lazy open-addressing hash index over `entries` (slot holds entry index
  // + 1; 0 means empty). Built at most once, under `index_once`, when a
  // membership probe hits a bag with >= Bag::kIndexThreshold distinct
  // elements. Mutable because the index is a cache on an immutable Rep.
  mutable std::once_flag index_once;
  mutable std::vector<uint32_t> index;
  // Cached IsSetLike answer: kSetLikeUnknown until the first call. A pure
  // function of `entries`, so racing first callers store the same value.
  static constexpr uint8_t kSetLikeUnknown = 2;
  mutable std::atomic<uint8_t> set_like{kSetLikeUnknown};
  // Lazy Bag::column_facts(), built at most once under `column_facts_once`.
  mutable std::once_flag column_facts_once;
  mutable std::unique_ptr<const Bag::ColumnFacts> column_facts;
};

namespace {

const std::shared_ptr<const Bag::Rep>& EmptyBagRep() {
  static auto rep = [] {
    auto r = std::make_shared<Bag::Rep>();
    r->hash = 0x90u;
    return std::shared_ptr<const Bag::Rep>(std::move(r));
  }();
  return rep;
}

// ------------------------------------------------------ lazy hash index

/// True when `rep` is large enough for the hash index to pay for itself
/// and small enough for uint32 slots.
bool IndexEligible(const Bag::Rep& rep) {
  return rep.entries.size() >= Bag::kIndexThreshold &&
         rep.entries.size() < (uint64_t{1} << 32) - 1;
}

/// Builds the open-addressing table: power-of-two capacity at load factor
/// <= 0.5, linear probing, slots hold entry index + 1. Deterministic (one
/// insertion order) and collision-safe: probes compare the actual values.
void BuildValueIndex(const Bag::Rep& rep) {
  const size_t n = rep.entries.size();
  const size_t cap = std::bit_ceil(n * 2);
  GovernorAccountBytes(cap * sizeof(uint32_t));
  rep.index.assign(cap, 0);
  const size_t mask = cap - 1;
  for (size_t i = 0; i < n; ++i) {
    size_t slot = rep.entries[i].value.Hash() & mask;
    while (rep.index[slot] != 0) slot = (slot + 1) & mask;
    rep.index[slot] = static_cast<uint32_t>(i + 1);
  }
  obs::GlobalMetrics().GetCounter("kernel.index_builds")->Increment();
}

/// Probes the (built-on-demand) index of `rep` for `value`; nullptr when
/// absent. Requires IndexEligible(rep).
const BagEntry* IndexedFind(const Bag::Rep& rep, const Value& value) {
  std::call_once(rep.index_once, [&rep] { BuildValueIndex(rep); });
  static obs::Counter* probes =
      obs::GlobalMetrics().GetCounter("kernel.index_probes");
  static obs::Counter* hits =
      obs::GlobalMetrics().GetCounter("kernel.index_hits");
  probes->Increment();
  const size_t mask = rep.index.size() - 1;
  size_t slot = value.Hash() & mask;
  while (true) {
    const uint32_t stored = rep.index[slot];
    if (stored == 0) return nullptr;
    const BagEntry& e = rep.entries[stored - 1];
    if (e.value == value) {
      hits->Increment();
      return &e;
    }
    slot = (slot + 1) & mask;
  }
}

// ------------------------------------------------------ lazy column facts

/// Computes Bag::column_facts() for `rep`: per column, one pass against
/// the first entry decides constancy, and a sort of the column's values
/// decides uniqueness.
std::unique_ptr<const Bag::ColumnFacts> BuildColumnFacts(
    const Bag::Rep& rep) {
  auto facts = std::make_unique<Bag::ColumnFacts>();
  const size_t arity =
      rep.element_type.IsTuple() ? rep.element_type.fields().size() : 0;
  facts->constant.assign(arity, true);
  facts->unique.assign(arity, true);
  std::vector<const Value*> column(rep.entries.size());
  for (size_t c = 0; c < arity; ++c) {
    for (size_t i = 0; i < column.size(); ++i) {
      column[i] = &rep.entries[i].value.fields()[c];
      if (!(*column[i] == *column[0])) facts->constant[c] = false;
    }
    std::sort(column.begin(), column.end(),
              [](const Value* a, const Value* b) { return *a < *b; });
    for (size_t i = 1; i < column.size(); ++i) {
      if (*column[i - 1] == *column[i]) facts->unique[c] = false;
    }
  }
  obs::GlobalMetrics().GetCounter("kernel.column_facts_builds")->Increment();
  return facts;
}

// ------------------------------------------------------- canonical order

bool EntryValueLess(const BagEntry& a, const BagEntry& b) {
  return a.value.Compare(b.value) < 0;
}

/// Run detection gives up, and the input is sorted instead, once the
/// natural runs average fewer than this many entries.
constexpr size_t kMinMeanRunLength = 16;

/// Contiguous [begin, end) index ranges of `items`, in index order.
using Runs = std::vector<std::pair<size_t, size_t>>;

/// The maximal non-decreasing runs of `items`, found with one Compare per
/// adjacent pair: none when `items` is already sorted (without
/// allocating), nullopt once there are more than n / kMinMeanRunLength.
std::optional<Runs> NaturalRuns(const std::vector<BagEntry>& items) {
  const size_t n = items.size();
  const size_t max_runs = n / kMinMeanRunLength;
  Runs runs;
  size_t begin = 0;
  for (size_t i = 1; i < n; ++i) {
    if (items[i - 1].value.Compare(items[i].value) > 0) {
      if (runs.size() + 2 > max_runs) return std::nullopt;
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  if (!runs.empty()) runs.emplace_back(begin, n);
  return runs;
}

/// Merges the sorted `runs` of `items` pairwise in index order, halving
/// the run count each round.
void MergeRuns(std::vector<BagEntry>& items, Runs runs) {
  // The scratch buffer is move-constructed rather than default-constructed,
  // and the first round merges back into `items`.
  std::vector<BagEntry> scratch(std::make_move_iterator(items.begin()),
                                std::make_move_iterator(items.end()));
  std::vector<BagEntry>* src = &scratch;
  std::vector<BagEntry>* dst = &items;
  while (runs.size() > 1) {
    Runs next;
    for (size_t p = 0; p + 1 < runs.size(); p += 2) {
      const auto [lo, mid] = runs[p];
      const size_t hi = runs[p + 1].second;
      std::merge(std::make_move_iterator(src->begin() + lo),
                 std::make_move_iterator(src->begin() + mid),
                 std::make_move_iterator(src->begin() + mid),
                 std::make_move_iterator(src->begin() + hi),
                 dst->begin() + lo, EntryValueLess);
      next.emplace_back(lo, hi);
    }
    if (runs.size() % 2 == 1) {
      const auto [lo, hi] = runs.back();
      std::move(src->begin() + lo, src->begin() + hi, dst->begin() + lo);
      next.push_back(runs.back());
    }
    runs = std::move(next);
    std::swap(src, dst);
  }
  if (src != &items) items = std::move(*src);
}

/// Puts `items` in value order. Input that is already sorted is left as
/// is, a few natural runs (the concatenated canonical streams of a `⊎`)
/// are merged, and past n / kMinMeanRunLength runs the input is sorted.
void SortEntriesByValue(std::vector<BagEntry>& items) {
  std::optional<Runs> runs = NaturalRuns(items);
  if (!runs) {
    std::sort(items.begin(), items.end(), EntryValueLess);
  } else if (!runs->empty()) {
    MergeRuns(items, std::move(*runs));
  }
}

}  // namespace

// --------------------------------------------------------------------- Value

Value::Value() {
  // One shared empty tuple: default construction (scratch rows, resized
  // batches) allocates nothing.
  static const Value* const empty = new Value(Tuple({}));
  rep_ = empty->rep_;
}

Value Value::Atom(AtomId id) {
  auto rep = std::make_shared<Rep>();
  rep->kind = Kind::kAtom;
  rep->atom = id;
  rep->type = Type::Atom();
  rep->hash = CombineHash(0xa70u, id);
  return Value(std::move(rep));
}

Value Value::Tuple(std::vector<Value> fields) {
  auto rep = std::make_shared<Rep>();
  rep->kind = Kind::kTuple;
  size_t h = 0x70u;
  bool flat = true;
  for (const Value& f : fields) {
    h = CombineHash(h, f.Hash());
    flat = flat && f.IsAtom();
  }
  if (flat) {
    // A row of atoms takes the shared flat tuple type: no Type allocated.
    rep->type = Type::FlatTuple(fields.size());
  } else {
    std::vector<Type> field_types;
    field_types.reserve(fields.size());
    for (const Value& f : fields) field_types.push_back(f.type());
    rep->type = Type::Tuple(std::move(field_types));
  }
  rep->fields = std::move(fields);
  rep->hash = h;
  return Value(std::move(rep));
}

Value Value::FromBag(Bag bag) {
  auto rep = std::make_shared<Rep>();
  rep->kind = Kind::kBag;
  rep->hash = CombineHash(0xb0u, bag.Hash());
  rep->type = bag.type();
  rep->bag = std::make_shared<const Bag>(std::move(bag));
  return Value(std::move(rep));
}

Value::Kind Value::kind() const { return rep_->kind; }

AtomId Value::atom_id() const {
  assert(IsAtom());
  return rep_->atom;
}

const std::vector<Value>& Value::fields() const {
  assert(IsTuple());
  return rep_->fields;
}

const Bag& Value::bag() const {
  assert(IsBag());
  return *rep_->bag;
}

const Type& Value::type() const { return rep_->type; }

size_t Value::Hash() const { return rep_->hash; }

int Value::Compare(const Value& other) const {
  if (rep_ == other.rep_) return 0;
  if (kind() != other.kind()) {
    return static_cast<int>(kind()) < static_cast<int>(other.kind()) ? -1 : 1;
  }
  switch (kind()) {
    case Kind::kAtom:
      if (atom_id() != other.atom_id()) {
        return atom_id() < other.atom_id() ? -1 : 1;
      }
      return 0;
    case Kind::kTuple: {
      const auto& a = fields();
      const auto& b = other.fields();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      return 0;
    }
    case Kind::kBag:
      return bag().Compare(other.bag());
  }
  return 0;
}

bool Value::operator==(const Value& other) const {
  if (rep_ == other.rep_) return true;
  if (rep_->hash != other.rep_->hash) return false;
  return Compare(other) == 0;
}

std::string Value::ToString(const AtomTable* table) const {
  std::string out;
  AppendText(*this, table != nullptr ? *table : GlobalAtomTable(), &out);
  return out;
}

// ----------------------------------------------------------------------- Bag

Bag::Bag() : rep_(EmptyBagRep()) {}

Bag::Bag(Type element_type) {
  auto rep = std::make_shared<Rep>();
  rep->element_type = std::move(element_type);
  rep->hash = 0x90u;
  rep_ = std::move(rep);
}

void Bag::Builder::Add(Value value, Mult count) {
  if (count.IsZero()) return;
  items_.push_back(BagEntry{std::move(value), std::move(count)});
}

void Bag::Builder::AddBag(const Bag& bag, const Mult& factor) {
  if (factor.IsZero()) return;
  Reserve(bag.entries().size());
  for (const BagEntry& e : bag.entries()) {
    Add(e.value, e.count * factor);
  }
}

Result<Bag> Bag::Builder::Build() && {
  // Kernels that emit in canonical order (merge walks, products of
  // canonical operands, subbag materialization) skip the sort entirely,
  // and concatenated canonical streams are merged, not re-sorted.
  SortEntriesByValue(items_);
  auto rep = std::make_shared<Rep>();
  rep->entries.reserve(items_.size());
  Type elem = declared_;
  Mult total;
  size_t h = 0x90u;
  for (BagEntry& item : items_) {
    // Join allocates; skip it when the item's type is already subsumed —
    // the overwhelmingly common case of homogeneous additions.
    if (!(item.value.type() == elem)) {
      BAGALG_ASSIGN_OR_RETURN(elem, Type::Join(elem, item.value.type()));
    }
    if (!rep->entries.empty() && rep->entries.back().value == item.value) {
      rep->entries.back().count += item.count;
    } else {
      rep->entries.push_back(std::move(item));
    }
  }
  if (rep->entries.capacity() > 2 * rep->entries.size()) {
    // Many additions merged into few entries: release the surplus, or the
    // bag keeps the pre-merge capacity for life.
    rep->entries = std::vector<BagEntry>(
        std::make_move_iterator(rep->entries.begin()),
        std::make_move_iterator(rep->entries.end()));
  }
  for (const BagEntry& e : rep->entries) {
    total += e.count;
    h = CombineHash(h, CombineHash(e.value.Hash(), e.count.Hash()));
  }
  rep->element_type = std::move(elem);
  rep->total = std::move(total);
  rep->hash = h;
  items_.clear();
  // Charge the canonical entry array to the ambient governor's memory cap.
  // Tiny bags (per-subbag results inside powerset enumeration) are skipped:
  // their enclosing loop is already checkpointed, and charging them here
  // would put an atomic on the kernels' hottest path.
  if (rep->entries.size() >= kGovernorAccountMinEntries) {
    GovernorAccountBytes(rep->entries.capacity() * sizeof(BagEntry));
  }
  return Bag(std::move(rep));
}

Bag Bag::FromCanonicalEntries(Type element_type,
                              std::vector<BagEntry> entries) {
#ifndef NDEBUG
  for (size_t i = 0; i < entries.size(); ++i) {
    assert(!entries[i].count.IsZero() &&
           "FromCanonicalEntries: zero multiplicity");
    assert((i == 0 || entries[i - 1].value.Compare(entries[i].value) < 0) &&
           "FromCanonicalEntries: entries not strictly sorted");
  }
#endif
  auto rep = std::make_shared<Rep>();
  Mult total;
  size_t h = 0x90u;
  for (const BagEntry& e : entries) {
    total += e.count;
    h = CombineHash(h, CombineHash(e.value.Hash(), e.count.Hash()));
  }
  rep->element_type = std::move(element_type);
  rep->entries = std::move(entries);
  rep->total = std::move(total);
  rep->hash = h;
  if (rep->entries.size() >= kGovernorAccountMinEntries) {
    GovernorAccountBytes(rep->entries.capacity() * sizeof(BagEntry));
  }
  return Bag(std::move(rep));
}

const Type& Bag::element_type() const { return rep_->element_type; }

const std::vector<BagEntry>& Bag::entries() const { return rep_->entries; }

const Mult& Bag::TotalCount() const { return rep_->total; }

bool Bag::IsSetLike() const {
  uint8_t cached = rep_->set_like.load(std::memory_order_relaxed);
  if (cached == Rep::kSetLikeUnknown) {
    cached = 1;
    for (const BagEntry& e : entries()) {
      if (!e.count.IsOne()) {
        cached = 0;
        break;
      }
    }
    rep_->set_like.store(cached, std::memory_order_relaxed);
  }
  return cached == 1;
}

const Bag::ColumnFacts& Bag::column_facts() const {
  std::call_once(rep_->column_facts_once,
                 [this] { rep_->column_facts = BuildColumnFacts(*rep_); });
  return *rep_->column_facts;
}

Mult Bag::CountOf(const Value& value) const {
  if (IndexEligible(*rep_)) {
    const BagEntry* e = IndexedFind(*rep_, value);
    return e != nullptr ? e->count : ZeroMult();
  }
  const auto& es = entries();
  auto it = std::lower_bound(es.begin(), es.end(), value,
                             [](const BagEntry& e, const Value& v) {
                               return e.value.Compare(v) < 0;
                             });
  if (it != es.end() && it->value == value) return it->count;
  return ZeroMult();
}

bool Bag::SubBagOf(const Bag& other) const {
  const auto& a = entries();
  const auto& b = other.entries();
  // Every distinct element here must also be distinct there.
  if (a.size() > b.size()) return false;
  // When this bag is much smaller, probe the other side's hash index
  // instead of walking its whole entry list.
  if (IndexEligible(*other.rep_) && a.size() * 4 <= b.size()) {
    for (const BagEntry& e : a) {
      const BagEntry* match = IndexedFind(*other.rep_, e.value);
      if (match == nullptr || e.count > match->count) return false;
    }
    return true;
  }
  // Merge-walk both canonical entry lists.
  size_t i = 0, j = 0;
  while (i < a.size()) {
    if (j == b.size()) return false;
    int c = a[i].value.Compare(b[j].value);
    if (c < 0) return false;  // element of a missing from b
    if (c > 0) {
      ++j;
      continue;
    }
    if (a[i].count > b[j].count) return false;
    ++i;
    ++j;
  }
  return true;
}

size_t Bag::Hash() const { return rep_->hash; }

int Bag::Compare(const Bag& other) const {
  if (rep_ == other.rep_) return 0;
  const auto& a = entries();
  const auto& b = other.entries();
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].value.Compare(b[i].value);
    if (c != 0) return c;
    c = a[i].count.Compare(b[i].count);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

bool Bag::operator==(const Bag& other) const {
  if (rep_ == other.rep_) return true;
  if (rep_->hash != other.rep_->hash) return false;
  return Compare(other) == 0;
}

std::string Bag::ToString(const AtomTable* table) const {
  std::string out;
  AppendBagText(*this, table != nullptr ? *table : GlobalAtomTable(), &out);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

std::ostream& operator<<(std::ostream& os, const Bag& bag) {
  return os << bag.ToString();
}

// -------------------------------------------------------------- Convenience

Value MakeAtom(std::string_view name, AtomTable* table) {
  AtomTable& t = table != nullptr ? *table : GlobalAtomTable();
  return Value::Atom(t.Intern(name));
}

Value MakeTuple(std::initializer_list<Value> fields) {
  return Value::Tuple(std::vector<Value>(fields));
}

Bag MakeBag(std::initializer_list<std::pair<Value, uint64_t>> items) {
  Bag::Builder builder;
  for (const auto& [value, count] : items) {
    builder.Add(value, Mult(count));
  }
  auto result = std::move(builder).Build();
  assert(result.ok() && "MakeBag: inhomogeneous bag literal");
  return std::move(result).value();
}

Bag MakeBagOf(std::initializer_list<Value> values) {
  Bag::Builder builder;
  for (const Value& v : values) builder.AddOne(v);
  auto result = std::move(builder).Build();
  assert(result.ok() && "MakeBagOf: inhomogeneous bag literal");
  return std::move(result).value();
}

Bag NCopies(const Mult& n, const Value& value) {
  Bag::Builder builder;
  builder.Add(value, n);
  auto result = std::move(builder).Build();
  assert(result.ok());
  return std::move(result).value();
}

}  // namespace bagalg
