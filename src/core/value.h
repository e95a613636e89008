#ifndef BAGALG_CORE_VALUE_H_
#define BAGALG_CORE_VALUE_H_

/// \file value.h
/// Complex-object values: atoms, tuples, and (nested) bags.
///
/// A value of the paper's data model (§2) is a tree built from atomic
/// constants with tuple and bag constructors. bagalg values are immutable
/// shared trees with precomputed hashes and types, so copying is O(1) and
/// structurally shared — essential for powerset outputs where the 2^n
/// subbags share all their elements.
///
/// Bags are stored in *canonical counted form*: distinct elements in
/// canonical value order, each with a nonzero BigNat multiplicity. An
/// element "n-belongs" to the bag (paper's term) iff its entry carries
/// multiplicity n. A bag whose element type holds no bag (every bag of
/// BALG¹, and the inner bags of a powerset) stores its elements as flat
/// rows (flat_rows.h): one row of atom ids per distinct element, row-major,
/// beside a count array; no Value tree is kept, and a ValueWalk builds
/// Values from the rows where a caller needs them. Any other bag stores a
/// sorted vector of (value, multiplicity) entries. The paper's standard
/// encoding — duplicates written out explicitly — is reproduced by the
/// size accounting in encoding.h, not by the storage; the counted/explicit
/// distinction is itself one of the experiments (E19).

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/atom.h"
#include "src/core/flat_rows.h"
#include "src/core/type.h"
#include "src/util/bignat.h"
#include "src/util/result.h"

namespace bagalg {

// Mult (flat_rows.h) is the multiplicity of a bag element: a BigNat, since
// Proposition 3.2 shows iterated powerset/bag-destroy chains reach
// hyperexponential counts.

class Bag;

/// An immutable complex-object value (atom, tuple, or bag).
class Value {
 public:
  enum class Kind { kAtom, kTuple, kBag };

  /// Constructs an atom value.
  static Value Atom(AtomId id);
  /// Constructs a tuple value (arity may be 0).
  static Value Tuple(std::vector<Value> fields);
  /// Wraps a bag as a value.
  static Value FromBag(Bag bag);

  /// Default-constructs the empty tuple (so Value is regular).
  Value();

  Kind kind() const;
  bool IsAtom() const { return kind() == Kind::kAtom; }
  bool IsTuple() const { return kind() == Kind::kTuple; }
  bool IsBag() const { return kind() == Kind::kBag; }

  /// Atom identity; requires IsAtom().
  AtomId atom_id() const;
  /// Tuple fields; requires IsTuple().
  const std::vector<Value>& fields() const;
  /// Contained bag; requires IsBag().
  const Bag& bag() const;

  /// The value's type, precomputed at construction. Empty bags carry a
  /// Bottom element type unless built with an explicit one.
  const Type& type() const;

  /// Structural hash: precomputed for atoms and tuples, the bag's own for
  /// a bag.
  size_t Hash() const;

  /// Total order over all values: atoms (by id) < tuples (lex) < bags (lex
  /// over canonical entries). This order canonicalizes bag storage; it is
  /// *not* the database order relation of §4 (see orderings in derived.h).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Rendering, e.g. "[a, {{b*3, c}}]". Atom names resolved through `table`
  /// (the global table if null).
  std::string ToString(const AtomTable* table = nullptr) const;

  /// Internal shared representation (not part of the supported API).
  struct Rep;

 private:
  explicit Value(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

/// One canonical bag entry: a distinct value with its positive multiplicity.
struct BagEntry {
  Value value;
  Mult count;
};

/// An immutable homogeneous bag in canonical counted form.
///
/// Equality and ordering compare entries only; the element type is metadata
/// (two empty bags are equal regardless of their declared element types).
class Bag {
 public:
  /// The empty bag with Bottom element type.
  Bag();
  /// The empty bag with a declared element type.
  explicit Bag(Type element_type);

  /// Accumulates (value, multiplicity) pairs and produces a canonical bag.
  /// Zero-multiplicity additions are ignored. Build fails with TypeError if
  /// the element values are not type-compatible (inhomogeneous bag).
  class Builder {
   public:
    Builder() = default;
    /// Declares the element type up front (useful for empty results).
    explicit Builder(Type element_type) : declared_(std::move(element_type)) {}

    /// Pre-allocates room for `n` further pending additions. Safe to call
    /// once per batch inside a loop: capacity grows geometrically, so
    /// repeated incremental reservations stay amortized O(1) per item
    /// (an exact-fit reserve would recopy everything on every call).
    void Reserve(size_t n) {
      const size_t want = items_.size() + n;
      if (want > items_.capacity()) {
        items_.reserve(std::max(want, items_.capacity() * 2));
      }
    }

    /// Adds `count` occurrences of `value`.
    void Add(Value value, Mult count);
    /// Adds a single occurrence.
    void AddOne(Value value) { Add(std::move(value), Mult(1)); }
    /// Adds every entry of another bag, scaled by `factor`.
    void AddBag(const Bag& bag, const Mult& factor = Mult(1));

    /// Canonicalizes: puts the additions in value order, merges
    /// duplicates, joins element types. Additions that arrived in order
    /// (kernels that emit canonically) are not sorted at all; a few sorted
    /// runs (concatenated canonical streams) are merged; anything else is
    /// sorted. When the joined element type holds no bag, the additions
    /// are flattened to rows first (and their Values freed), and the rows
    /// are ordered instead.
    Result<Bag> Build() &&;

   private:
    Type declared_ = Type::Bottom();
    std::vector<BagEntry> items_;
  };

  /// Constructs a bag directly from entries already in canonical form:
  /// strictly sorted by Value order, distinct, positive counts, every value
  /// acceptable by `element_type`. Skips the sort / duplicate-merge / type
  /// join work of Builder; the kernels use it for outputs whose
  /// canonicality is structural (merge walks, subbag materialization).
  /// When `element_type` holds no bag the entries are flattened to rows.
  /// Preconditions are assert-checked in debug builds only.
  static Bag FromCanonicalEntries(Type element_type,
                                  std::vector<BagEntry> entries);

  /// Constructs a bag whose element type holds no bag from rows already in
  /// canonical form: width CellWidth(element_type), strictly increasing,
  /// positive counts (Bottom only when there are none). Preconditions are
  /// assert-checked in debug builds only.
  static Bag FromCanonicalRows(Type element_type, FlatRows rows);

  /// Like FromCanonicalRows, for rows in any order and with repeats: the
  /// parts are put in canonical order and equal rows combined first.
  static Bag FromRows(Type element_type, std::vector<FlatRows> parts);

  /// The joined element type of the bag's members (Bottom if empty and
  /// undeclared).
  const Type& element_type() const;
  /// The bag's own type: {{element_type}}.
  Type type() const { return Type::Bag(element_type()); }

  /// The canonical rows of a bag whose element type holds no bag: its
  /// storage. nullptr when the elements hold a bag.
  const FlatRows* flat_rows() const;
  /// The canonical entries of a bag whose element type holds a bag: its
  /// storage. Empty for a flat bag, whose storage is flat_rows().
  const std::vector<BagEntry>& nested_entries() const;

  /// A fresh copy of the canonical entries (sorted by value, distinct,
  /// positive counts), for tests, examples and tools: a flat bag builds
  /// one Value per row on every call. Library code reads the storage.
  std::vector<BagEntry> entries() const;

  /// Number of distinct elements.
  size_t DistinctCount() const;
  /// The i-th distinct element in canonical order, i < DistinctCount().
  /// A flat bag builds it from its row on every call.
  Value ElementAt(size_t i) const;
  /// The multiplicity of the i-th distinct element.
  const Mult& CountAt(size_t i) const;
  /// Total number of occurrences (the paper's bag cardinality).
  const Mult& TotalCount() const;
  /// True iff the bag has no occurrences.
  bool empty() const { return DistinctCount() == 0; }
  /// True iff every multiplicity is 1 (the bag "is a set"). Walks the
  /// counts on the first call only; the answer is cached on the bag.
  bool IsSetLike() const;

  /// Per-column facts of a bag of tuples, indexed by 0-based column.
  struct ColumnFacts {
    /// Every entry holds the same value in this column.
    std::vector<bool> constant;
    /// No two entries hold the same value in this column.
    std::vector<bool> unique;
  };
  /// The column facts of this bag: one slot per field of a tuple element
  /// type whose elements hold no bag, none otherwise. Built from the
  /// rows on the first call (once, thread-safely, like the hash index)
  /// and shared by every copy of the bag, so plan-time analyses that read
  /// them on each lowering pay the O(distinct · width · log distinct)
  /// walk once per stored bag (counter `kernel.column_facts_builds`).
  const ColumnFacts& column_facts() const;

  /// Multiplicity of `value` in this bag (zero if absent). A flat bag
  /// binary-searches its rows. Any other bag with at least kIndexThreshold
  /// distinct elements lazily builds a hash index (once, thread-safely) and
  /// answers in O(1) expected probes; smaller ones binary-search the
  /// canonical entry list.
  Mult CountOf(const Value& value) const;
  /// True iff `value` occurs at least once.
  bool Contains(const Value& value) const { return !CountOf(value).IsZero(); }
  /// True iff this is a subbag of `other` (paper's ⊑: every multiplicity
  /// here is ≤ the multiplicity there). Flat bags merge-walk their rows;
  /// otherwise probes `other`'s hash index when this bag is much smaller,
  /// and merge-walks the entries otherwise.
  bool SubBagOf(const Bag& other) const;

  /// Distinct-count threshold above which bags of bags build the lazy hash
  /// index.
  static constexpr size_t kIndexThreshold = 64;

  /// Structural hash (entry-based; element type excluded). A bag of bags
  /// computes it at construction; a flat bag hashes its rows to the same
  /// value on the first call (with TotalCount).
  size_t Hash() const;
  /// Lexicographic order over canonical entries; flat bags of one element
  /// type compare their rows.
  int Compare(const Bag& other) const;
  bool operator==(const Bag& other) const;
  bool operator!=(const Bag& other) const { return !(*this == other); }

  /// Rendering, e.g. "{{a, [b, c]*3}}".
  std::string ToString(const AtomTable* table = nullptr) const;

  /// Internal shared representation (not part of the supported API).
  struct Rep;

 private:
  friend class Builder;
  explicit Bag(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

/// One walk over a bag's distinct elements as Values, for callers that
/// need Values (eval's uncompiled MAP and σ, isomorphisms). A flat bag's
/// elements are built from its rows, one atom Value per atom id shared
/// across the walk (counter `kernel.value_walks`, once per walk that
/// builds one); a bag of bags hands out its entries. Borrows `bag`.
class ValueWalk {
 public:
  explicit ValueWalk(const Bag& bag)
      : bag_(bag), rows_(bag.flat_rows()), entries_(bag.nested_entries()) {}

  size_t size() const { return bag_.DistinctCount(); }
  /// The i-th distinct element, i < size().
  Value ElementAt(size_t i) {
    return rows_ == nullptr ? entries_[i].value : RowElementAt(i);
  }
  /// Its multiplicity.
  const Mult& CountAt(size_t i) const {
    return rows_ == nullptr ? entries_[i].count : rows_->counts[i];
  }
  /// The value of `type` (which holds no bag) whose atom ids are
  /// cells[0, CellWidth(type)), its atoms shared with the walk's.
  Value Of(const Type& type, const AtomId* cells);

 private:
  Value RowElementAt(size_t i);

  const Bag& bag_;
  const FlatRows* rows_;
  const std::vector<BagEntry>& entries_;
  std::unordered_map<AtomId, Value> atoms_;
  bool counted_ = false;
};

std::ostream& operator<<(std::ostream& os, const Value& value);
std::ostream& operator<<(std::ostream& os, const Bag& bag);

// ----- Convenience constructors (used pervasively by tests and examples) ---

/// Atom value by name, interned in `table` (global table if null).
Value MakeAtom(std::string_view name, AtomTable* table = nullptr);

/// Tuple value from an initializer list.
Value MakeTuple(std::initializer_list<Value> fields);

/// Bag from (value, small multiplicity) pairs; dies on type error (test
/// convenience only — library code uses Bag::Builder).
Bag MakeBag(std::initializer_list<std::pair<Value, uint64_t>> items);

/// Number of atom leaves in a value of `type`: 1 for an atom, the sum over
/// the fields for a tuple, 0 for Bottom and for a bag.
size_t CellWidth(const Type& type);

/// Bag of values, each with multiplicity 1.
Bag MakeBagOf(std::initializer_list<Value> values);

/// The bag B_n of the paper's proofs: n occurrences of `value` and nothing
/// else.
Bag NCopies(const Mult& n, const Value& value);

}  // namespace bagalg

#endif  // BAGALG_CORE_VALUE_H_
