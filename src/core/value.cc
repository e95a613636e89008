#include "src/core/value.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>

#include "src/core/row_format.h"
#include "src/obs/metrics.h"
#include "src/util/governor.h"

namespace bagalg {

namespace {

size_t CombineHash(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

// Hash seeds of the three value kinds and of a bag's entry list.
constexpr size_t kAtomSeed = 0xa70u;
constexpr size_t kTupleSeed = 0x70u;
constexpr size_t kBagValueSeed = 0xb0u;
constexpr size_t kEntriesSeed = 0x90u;

const Mult& ZeroMult() {
  static const Mult* zero = new Mult();
  return *zero;
}

// ------------------------------------------------------------- flat rows

/// True when values of `type` are stored as flat rows in a bag: the type
/// holds no bag (Bottom included: an empty bag's rows).
bool IsFlat(const Type& type) { return type.BagNesting() == 0; }

/// Appends the atom leaves of `v`, left to right.
void AppendCells(const Value& v, std::vector<AtomId>* out) {
  if (v.IsAtom()) {
    out->push_back(v.atom_id());
    return;
  }
  for (const Value& f : v.fields()) AppendCells(f, out);
}

/// Value::Hash of the value of type `type` whose atoms are row[*pos...].
size_t RowHash(const Type& type, const AtomId* row, size_t* pos) {
  if (type.IsAtom()) return CombineHash(kAtomSeed, row[(*pos)++]);
  size_t h = kTupleSeed;
  for (const Type& field : type.fields()) {
    h = CombineHash(h, RowHash(field, row, pos));
  }
  return h;
}

/// Builds the value of type `type` whose atoms are row[*pos...].
template <typename AtomOf>
Value RowValue(const Type& type, const AtomId* row, size_t* pos,
               const AtomOf& atom_of) {
  if (type.IsAtom()) return atom_of(row[(*pos)++]);
  std::vector<Value> fields;
  fields.reserve(type.fields().size());
  for (const Type& field : type.fields()) {
    fields.push_back(RowValue(field, row, pos, atom_of));
  }
  return Value::Tuple(std::move(fields));
}

// The text renderer appends every level into one buffer: an atom is a
// view of its name, a flat bag's entries are written by a text RowFormat,
// and a bag of bags keeps the Value path for its own level.
void AppendBagText(const Bag& bag, const AtomTable& table,
                   RowFormatCache& formats, std::string* out);

void AppendAtomText(AtomId id, const AtomTable& table, std::string* out) {
  if (const auto name = table.NameView(id)) {
    out->append(*name);
  } else {
    out->append(table.NameOf(id));
  }
}

void AppendText(const Value& value, const AtomTable& table,
                RowFormatCache& formats, std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      AppendAtomText(value.atom_id(), table, out);
      return;
    case Value::Kind::kTuple: {
      out->push_back('[');
      bool first = true;
      for (const Value& field : value.fields()) {
        if (!first) out->append(", ");
        first = false;
        AppendText(field, table, formats, out);
      }
      out->push_back(']');
      return;
    }
    case Value::Kind::kBag:
      AppendBagText(value.bag(), table, formats, out);
      return;
  }
}

void AppendBagText(const Bag& bag, const AtomTable& table,
                   RowFormatCache& formats, std::string* out) {
  out->append("{{");
  if (const FlatRows* rows = bag.flat_rows()) {
    if (!rows->empty()) {
      formats.For(bag.element_type())
          .Append(*rows, 0, rows->size(), table, out);
    }
  } else {
    const std::vector<BagEntry>& entries = bag.nested_entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) out->append(", ");
      AppendText(entries[i].value, table, formats, out);
      const Mult& count = entries[i].count;
      if (!count.IsOne()) {
        out->push_back('*');
        count.AppendDecimal(out);
      }
    }
  }
  out->append("}}");
}

}  // namespace

// ---------------------------------------------------------------- Value::Rep

struct Value::Rep {
  // Takes the type up front: a default-constructed (Bottom) type would
  // cost two more reference-count updates per value.
  Rep(Value::Kind k, Type t) : kind(k), type(std::move(t)) {}

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
  // The caches few bags ever build, allocated on the first one's use.
  struct Caches {
    // Open-addressing hash index over `entries` of a bag of bags (slot
    // holds entry index + 1; 0 means empty). Built at most once, under
    // `index_once`, when a membership probe hits a bag with >=
    // Bag::kIndexThreshold distinct elements.
    std::once_flag index_once;
    std::vector<uint32_t> index;
    // Bag::column_facts(), built at most once under `facts_once`.
    std::once_flag facts_once;
    Bag::ColumnFacts facts;
  };

  ~Rep() { delete caches.load(std::memory_order_acquire); }

  Type element_type = Type::Bottom();
  // The canonical storage: `rows` when the element type holds no bag
  // (`flat`), `entries` otherwise. The one-byte fields share a word.
  bool flat = true;
  // Cached IsSetLike answer: kSetLikeUnknown until the first call. A pure
  // function of the counts, so racing first callers store the same value.
  static constexpr uint8_t kSetLikeUnknown = 2;
  mutable std::atomic<uint8_t> set_like{kSetLikeUnknown};
  // The entry hash: set at construction for a bag of bags; for a flat bag
  // computed from the rows on first use (a kernel's intermediate results
  // never need it). Racing first callers store the same value.
  mutable std::atomic<bool> hashed{false};
  mutable std::atomic<size_t> hash{kEntriesSeed};
  FlatRows rows;
  std::vector<BagEntry> entries;
  Mult total;
  // Null until CachesOf first needs it; then set once, never replaced.
  mutable std::atomic<Caches*> caches{nullptr};
};

#if defined(__LP64__)
// Every subbag a powerset enumerates is a Bag::Rep, so its size is the
// kernels' per-subbag cost: the storage (type, flags, rows, entries,
// total, hash) and one pointer to the rarely built caches. A lazily
// built cache added here would cost every subbag its bytes.
static_assert(sizeof(Bag::Rep) <= 168, "Bag::Rep grew past 168 bytes");
#endif

namespace {

const std::shared_ptr<const Bag::Rep>& EmptyBagRep() {
  static auto rep = std::shared_ptr<const Bag::Rep>(
      std::make_shared<Bag::Rep>());
  return rep;
}

/// The entry hash of a flat bag's rows: the hash of the same entries held
/// as Values.
size_t HashRows(const Bag::Rep& rep) {
  const FlatRows& rows = rep.rows;
  size_t h = kEntriesSeed;
  for (size_t i = 0; i < rows.size(); ++i) {
    size_t pos = 0;
    const size_t value_hash = RowHash(rep.element_type, rows.row(i), &pos);
    h = CombineHash(h, CombineHash(value_hash, rows.counts[i].Hash()));
  }
  return h;
}

/// The sum of `counts`, adding in a machine word while no sum wraps.
Mult SumCounts(const std::vector<Mult>& counts) {
  Mult total;
  uint64_t small_total = 0;
  for (const Mult& count : counts) {
    uint64_t sum = 0;
    if (count.FitsUint64() &&
        !__builtin_add_overflow(small_total, *count.ToUint64(), &sum)) {
      small_total = sum;
    } else {
      total += count;
    }
  }
  total += Mult(small_total);
  return total;
}

/// The rep of a flat bag holding `rows` (canonical, width
/// CellWidth(element_type)). Charges the rows to the governor.
std::shared_ptr<const Bag::Rep> FlatRep(Type element_type, FlatRows rows) {
  auto rep = std::make_shared<Bag::Rep>();
  rep->total = SumCounts(rows.counts);
  rep->element_type = std::move(element_type);
  rep->rows = std::move(rows);
  // Tiny bags (per-subbag results inside powerset enumeration) are not
  // charged: their enclosing loop is already checkpointed, and charging
  // them here would put an atomic on the kernels' hottest path.
  if (rep->rows.size() >= kGovernorAccountMinEntries) {
    GovernorAccountBytes(rep->rows.Bytes());
  }
  return rep;
}

/// The rep of a bag of bags holding canonical `entries`.
std::shared_ptr<const Bag::Rep> EntriesRep(Type element_type,
                                           std::vector<BagEntry> entries) {
  auto rep = std::make_shared<Bag::Rep>();
  size_t h = kEntriesSeed;
  for (const BagEntry& e : entries) {
    rep->total += e.count;
    h = CombineHash(h, CombineHash(e.value.Hash(), e.count.Hash()));
  }
  rep->flat = false;
  rep->hash.store(h, std::memory_order_relaxed);
  rep->hashed.store(true, std::memory_order_relaxed);
  rep->element_type = std::move(element_type);
  rep->entries = std::move(entries);
  if (rep->entries.size() >= kGovernorAccountMinEntries) {
    GovernorAccountBytes(rep->entries.capacity() * sizeof(BagEntry));
  }
  return rep;
}

/// The caches of `rep`, allocated by the first caller; a racing loser
/// frees its own and takes the winner's.
Bag::Rep::Caches& CachesOf(const Bag::Rep& rep) {
  Bag::Rep::Caches* caches = rep.caches.load(std::memory_order_acquire);
  if (caches == nullptr) {
    auto fresh = std::make_unique<Bag::Rep::Caches>();
    if (rep.caches.compare_exchange_strong(caches, fresh.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      caches = fresh.release();
    }
  }
  return *caches;
}

/// The index of the first row of `rows` not below `row`.
size_t LowerBoundRow(const FlatRows& rows, const AtomId* row) {
  size_t lo = 0;
  size_t hi = rows.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareRows(rows.row(mid), row, rows.width) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
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
void BuildValueIndex(const Bag::Rep& rep, std::vector<uint32_t>& index) {
  const size_t n = rep.entries.size();
  const size_t cap = std::bit_ceil(n * 2);
  GovernorAccountBytes(cap * sizeof(uint32_t));
  index.assign(cap, 0);
  const size_t mask = cap - 1;
  for (size_t i = 0; i < n; ++i) {
    size_t slot = rep.entries[i].value.Hash() & mask;
    while (index[slot] != 0) slot = (slot + 1) & mask;
    index[slot] = static_cast<uint32_t>(i + 1);
  }
  obs::GlobalMetrics().GetCounter("kernel.index_builds")->Increment();
}

/// Probes the (built-on-demand) index of `rep` for `value`; nullptr when
/// absent. Requires IndexEligible(rep).
const BagEntry* IndexedFind(const Bag::Rep& rep, const Value& value) {
  Bag::Rep::Caches& caches = CachesOf(rep);
  std::call_once(caches.index_once,
                 [&] { BuildValueIndex(rep, caches.index); });
  const std::vector<uint32_t>& index = caches.index;
  static obs::Counter* probes =
      obs::GlobalMetrics().GetCounter("kernel.index_probes");
  static obs::Counter* hits =
      obs::GlobalMetrics().GetCounter("kernel.index_hits");
  probes->Increment();
  const size_t mask = index.size() - 1;
  size_t slot = value.Hash() & mask;
  while (true) {
    const uint32_t stored = index[slot];
    if (stored == 0) return nullptr;
    const BagEntry& e = rep.entries[stored - 1];
    if (e.value == value) {
      hits->Increment();
      return &e;
    }
    slot = (slot + 1) & mask;
  }
}

// ---------------------------------------------------------- column facts

/// True when cell rows a and b agree on [begin, end).
bool SameCells(const AtomId* a, const AtomId* b, size_t begin, size_t end) {
  return std::equal(a + begin, a + end, b + begin);
}

/// Builds Bag::column_facts() for `rep` into `facts`. A column is a
/// field's cell range: constant when every row matches the first on it,
/// unique when no two rows match on it after sorting the rows by it.
void BuildColumnFacts(const Bag::Rep& rep, Bag::ColumnFacts* facts) {
  obs::GlobalMetrics().GetCounter("kernel.column_facts_builds")->Increment();
  if (!rep.flat) return;
  const size_t n = rep.rows.size();
  const size_t arity =
      rep.element_type.IsTuple() ? rep.element_type.fields().size() : 0;
  facts->constant.assign(arity, true);
  facts->unique.assign(arity, true);
  const size_t w = rep.rows.width;
  const AtomId* cells = rep.rows.cells.data();
  std::vector<size_t> order(n);
  size_t begin = 0;
  for (size_t c = 0; c < arity; ++c) {
    const size_t end = begin + CellWidth(rep.element_type.fields()[c]);
    for (size_t i = 1; i < n; ++i) {
      if (!SameCells(cells, cells + i * w, begin, end)) {
        facts->constant[c] = false;
        break;
      }
    }
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(
          cells + a * w + begin, cells + a * w + end, cells + b * w + begin,
          cells + b * w + end);
    });
    for (size_t i = 1; i < n; ++i) {
      if (SameCells(cells + order[i - 1] * w, cells + order[i] * w, begin,
                    end)) {
        facts->unique[c] = false;
        break;
      }
    }
    begin = end;
  }
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

/// The type of a tuple of `fields`. A row of atoms (`flat`) takes the
/// shared flat tuple type: no Type allocated.
Type TupleTypeOf(const std::vector<Value>& fields, bool flat) {
  if (flat) return Type::FlatTuple(fields.size());
  std::vector<Type> field_types;
  field_types.reserve(fields.size());
  for (const Value& f : fields) field_types.push_back(f.type());
  return Type::Tuple(std::move(field_types));
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
  auto rep = std::make_shared<Rep>(Kind::kAtom, Type::Atom());
  rep->atom = id;
  rep->hash = CombineHash(kAtomSeed, id);
  return Value(std::move(rep));
}

Value Value::Tuple(std::vector<Value> fields) {
  size_t h = kTupleSeed;
  bool flat = true;
  for (const Value& f : fields) {
    h = CombineHash(h, f.Hash());
    flat = flat && f.IsAtom();
  }
  auto rep = std::make_shared<Rep>(Kind::kTuple, TupleTypeOf(fields, flat));
  rep->fields = std::move(fields);
  rep->hash = h;
  return Value(std::move(rep));
}

Value Value::FromBag(Bag bag) {
  auto rep = std::make_shared<Rep>(Kind::kBag, bag.type());
  // The hash is the bag's, read through Hash(): a flat bag computes it
  // only when asked.
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

size_t Value::Hash() const {
  if (rep_->kind == Kind::kBag) {
    return CombineHash(kBagValueSeed, rep_->bag->Hash());
  }
  return rep_->hash;
}

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
  if (Hash() != other.Hash()) return false;
  return Compare(other) == 0;
}

std::string Value::ToString(const AtomTable* table) const {
  std::string out;
  RowFormatCache formats(RowSyntax::kText);
  AppendText(*this, table != nullptr ? *table : GlobalAtomTable(), formats,
             &out);
  return out;
}

// ----------------------------------------------------------------------- Bag

Bag::Bag() : rep_(EmptyBagRep()) {}

Bag::Bag(Type element_type) {
  auto rep = std::make_shared<Rep>();
  rep->flat = IsFlat(element_type);
  rep->rows.width = rep->flat ? CellWidth(element_type) : 0;
  rep->element_type = std::move(element_type);
  rep_ = std::move(rep);
}

void Bag::Builder::Add(Value value, Mult count) {
  if (count.IsZero()) return;
  items_.push_back(BagEntry{std::move(value), std::move(count)});
}

void Bag::Builder::AddBag(const Bag& bag, const Mult& factor) {
  if (factor.IsZero()) return;
  Reserve(bag.DistinctCount());
  ValueWalk walk(bag);
  for (size_t i = 0; i < walk.size(); ++i) {
    Add(walk.ElementAt(i), walk.CountAt(i) * factor);
  }
}

Result<Bag> Bag::Builder::Build() && {
  // Join the element types in arrival order; Join allocates, so skip it
  // when the item's type is already subsumed — the overwhelmingly common
  // case of homogeneous additions. A failed join falls through to the
  // value path, which reports it in value order.
  Type elem = declared_;
  bool joined = true;
  for (const BagEntry& item : items_) {
    if (item.value.type() == elem) continue;
    Result<Type> next = Type::Join(elem, item.value.type());
    if (!next.ok()) {
      joined = false;
      break;
    }
    elem = std::move(next).value();
  }
  if (joined && IsFlat(elem)) {
    // Flatten to rows and free the Values; the rows are then ordered and
    // combined by their cells.
    std::vector<FlatRows> parts(1);
    FlatRows& rows = parts[0];
    rows.width = CellWidth(elem);
    rows.Reserve(items_.size());
    for (BagEntry& item : items_) {
      AppendCells(item.value, &rows.cells);
      rows.counts.push_back(std::move(item.count));
    }
    std::vector<BagEntry>().swap(items_);
    return FromRows(std::move(elem), std::move(parts));
  }
  // Kernels that emit in canonical order (merge walks, products of
  // canonical operands, subbag materialization) skip the sort entirely,
  // and concatenated canonical streams are merged, not re-sorted.
  SortEntriesByValue(items_);
  std::vector<BagEntry> entries;
  entries.reserve(items_.size());
  elem = declared_;
  for (BagEntry& item : items_) {
    if (!(item.value.type() == elem)) {
      BAGALG_ASSIGN_OR_RETURN(elem, Type::Join(elem, item.value.type()));
    }
    if (!entries.empty() && entries.back().value == item.value) {
      entries.back().count += item.count;
    } else {
      entries.push_back(std::move(item));
    }
  }
  if (entries.capacity() > 2 * entries.size()) {
    // Many additions merged into few entries: release the surplus, or the
    // bag keeps the pre-merge capacity for life.
    entries = std::vector<BagEntry>(std::make_move_iterator(entries.begin()),
                                    std::make_move_iterator(entries.end()));
  }
  items_.clear();
  return Bag(EntriesRep(std::move(elem), std::move(entries)));
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
  if (!IsFlat(element_type)) {
    return Bag(EntriesRep(std::move(element_type), std::move(entries)));
  }
  FlatRows rows;
  rows.width = CellWidth(element_type);
  rows.Reserve(entries.size());
  for (BagEntry& e : entries) {
    AppendCells(e.value, &rows.cells);
    rows.counts.push_back(std::move(e.count));
  }
  return FromCanonicalRows(std::move(element_type), std::move(rows));
}

Bag Bag::FromCanonicalRows(Type element_type, FlatRows rows) {
  assert(IsFlat(element_type) && "FromCanonicalRows: elements hold a bag");
  assert(rows.width == CellWidth(element_type) &&
         "FromCanonicalRows: row width differs from the element type's");
#ifndef NDEBUG
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(!rows.counts[i].IsZero() &&
           "FromCanonicalRows: zero multiplicity");
    assert((i == 0 ||
            CompareRows(rows.row(i - 1), rows.row(i), rows.width) < 0) &&
           "FromCanonicalRows: rows not strictly increasing");
  }
#endif
  return Bag(FlatRep(std::move(element_type), std::move(rows)));
}

Bag Bag::FromRows(Type element_type, std::vector<FlatRows> parts) {
  const size_t width = CellWidth(element_type);
  return FromCanonicalRows(std::move(element_type),
                           Canonicalize(parts, width));
}

const Type& Bag::element_type() const { return rep_->element_type; }

const FlatRows* Bag::flat_rows() const {
  return rep_->flat ? &rep_->rows : nullptr;
}

const std::vector<BagEntry>& Bag::nested_entries() const {
  return rep_->entries;
}

std::vector<BagEntry> Bag::entries() const {
  if (!rep_->flat) return rep_->entries;
  std::vector<BagEntry> out;
  out.reserve(rep_->rows.size());
  ValueWalk walk(*this);
  for (size_t i = 0; i < walk.size(); ++i) {
    out.push_back({walk.ElementAt(i), walk.CountAt(i)});
  }
  return out;
}

size_t Bag::DistinctCount() const {
  return rep_->flat ? rep_->rows.size() : rep_->entries.size();
}

Value Bag::ElementAt(size_t i) const {
  if (!rep_->flat) return rep_->entries[i].value;
  size_t pos = 0;
  return RowValue(rep_->element_type, rep_->rows.row(i), &pos, &Value::Atom);
}

const Mult& Bag::CountAt(size_t i) const {
  return rep_->flat ? rep_->rows.counts[i] : rep_->entries[i].count;
}

const Mult& Bag::TotalCount() const { return rep_->total; }

bool Bag::IsSetLike() const {
  uint8_t cached = rep_->set_like.load(std::memory_order_relaxed);
  if (cached == Rep::kSetLikeUnknown) {
    cached = 1;
    for (size_t i = 0; i < DistinctCount(); ++i) {
      if (!CountAt(i).IsOne()) {
        cached = 0;
        break;
      }
    }
    rep_->set_like.store(cached, std::memory_order_relaxed);
  }
  return cached == 1;
}

const Bag::ColumnFacts& Bag::column_facts() const {
  Rep::Caches& caches = CachesOf(*rep_);
  std::call_once(caches.facts_once,
                 [&] { BuildColumnFacts(*rep_, &caches.facts); });
  return caches.facts;
}

Mult Bag::CountOf(const Value& value) const {
  if (rep_->flat) {
    const FlatRows& rows = rep_->rows;
    // Only a value of the rows' own shape can be one of them.
    if (rows.empty() || !(value.type() == rep_->element_type)) {
      return ZeroMult();
    }
    std::vector<AtomId> cells;
    cells.reserve(rows.width);
    AppendCells(value, &cells);
    const size_t i = LowerBoundRow(rows, cells.data());
    if (i < rows.size() &&
        CompareRows(rows.row(i), cells.data(), rows.width) == 0) {
      return rows.counts[i];
    }
    return ZeroMult();
  }
  if (IndexEligible(*rep_)) {
    const BagEntry* e = IndexedFind(*rep_, value);
    return e != nullptr ? e->count : ZeroMult();
  }
  const auto& es = rep_->entries;
  auto it = std::lower_bound(es.begin(), es.end(), value,
                             [](const BagEntry& e, const Value& v) {
                               return e.value.Compare(v) < 0;
                             });
  if (it != es.end() && it->value == value) return it->count;
  return ZeroMult();
}

bool Bag::SubBagOf(const Bag& other) const {
  if (empty()) return true;
  if (rep_->flat || other.rep_->flat) {
    // Rows of two shapes share no element, and neither do rows and values
    // that hold a bag.
    if (!rep_->flat || !other.rep_->flat ||
        !(rep_->element_type == other.rep_->element_type)) {
      return false;
    }
    const FlatRows& a = rep_->rows;
    const FlatRows& b = other.rep_->rows;
    if (a.size() > b.size()) return false;
    size_t j = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      // Every row of a must be in b, with a count at least as large.
      while (j < b.size() && CompareRows(b.row(j), a.row(i), a.width) < 0) {
        ++j;
      }
      if (j == b.size() || CompareRows(b.row(j), a.row(i), a.width) != 0 ||
          a.counts[i] > b.counts[j]) {
        return false;
      }
      ++j;
    }
    return true;
  }
  const auto& a = rep_->entries;
  const auto& b = other.rep_->entries;
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

size_t Bag::Hash() const {
  if (!rep_->hashed.load(std::memory_order_acquire)) {
    rep_->hash.store(HashRows(*rep_), std::memory_order_relaxed);
    rep_->hashed.store(true, std::memory_order_release);
  }
  return rep_->hash.load(std::memory_order_relaxed);
}

int Bag::Compare(const Bag& other) const {
  if (rep_ == other.rep_) return 0;
  const size_t na = DistinctCount();
  const size_t nb = other.DistinctCount();
  if (na == 0 || nb == 0) return na == nb ? 0 : (na < nb ? -1 : 1);
  if (rep_->flat && other.rep_->flat &&
      rep_->element_type == other.rep_->element_type) {
    // One shape: the value order is the row order.
    const FlatRows& a = rep_->rows;
    const FlatRows& b = other.rep_->rows;
    const size_t n = std::min(na, nb);
    for (size_t i = 0; i < n; ++i) {
      int c = CompareRows(a.row(i), b.row(i), a.width);
      if (c != 0) return c;
      c = a.counts[i].Compare(b.counts[i]);
      if (c != 0) return c;
    }
    if (na != nb) return na < nb ? -1 : 1;
    return 0;
  }
  // Elements of different shapes differ at the first entry already.
  const size_t n = std::min(na, nb);
  for (size_t i = 0; i < n; ++i) {
    int c = rep_->flat || other.rep_->flat
                ? ElementAt(i).Compare(other.ElementAt(i))
                : rep_->entries[i].value.Compare(other.rep_->entries[i].value);
    if (c != 0) return c;
    c = CountAt(i).Compare(other.CountAt(i));
    if (c != 0) return c;
  }
  if (na != nb) return na < nb ? -1 : 1;
  return 0;
}

bool Bag::operator==(const Bag& other) const {
  if (rep_ == other.rep_) return true;
  if (Hash() != other.Hash()) return false;
  return Compare(other) == 0;
}

std::string Bag::ToString(const AtomTable* table) const {
  std::string out;
  RowFormatCache formats(RowSyntax::kText);
  AppendBagText(*this, table != nullptr ? *table : GlobalAtomTable(), formats,
                &out);
  return out;
}

// ----------------------------------------------------------------- ValueWalk

Value ValueWalk::RowElementAt(size_t i) {
  if (!counted_) {
    static obs::Counter* const walks =
        obs::GlobalMetrics().GetCounter("kernel.value_walks");
    walks->Increment();
    counted_ = true;
  }
  return Of(bag_.element_type(), rows_->row(i));
}

Value ValueWalk::Of(const Type& type, const AtomId* cells) {
  const auto atom_of = [this](AtomId id) -> const Value& {
    auto [it, fresh] = atoms_.try_emplace(id);
    if (fresh) it->second = Value::Atom(id);
    return it->second;
  };
  size_t pos = 0;
  return RowValue(type, cells, &pos, atom_of);
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

std::ostream& operator<<(std::ostream& os, const Bag& bag) {
  return os << bag.ToString();
}

// -------------------------------------------------------------- Convenience

size_t CellWidth(const Type& type) {
  if (type.IsAtom()) return 1;
  if (!type.IsTuple()) return 0;
  size_t width = 0;
  for (const Type& field : type.fields()) width += CellWidth(field);
  return width;
}

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
