#ifndef BAGALG_TESTS_NESTED_MODEL_H_
#define BAGALG_TESTS_NESTED_MODEL_H_

// A reference model of bags of nesting 2 for differential tests of `eval`.
//
// A flat bag is a std::map from a row's atom ids to its multiplicity, as
// in flat_model.h, and a bag of nesting 2 is a std::map keyed by such
// maps. Its elements are flat bags, or tuples whose last field is a flat
// bag and whose other fields hold no bag (what nest makes and unnest
// takes apart). Every operator is the paper's §3 definition written out
// over the maps: ⊎, ∸, ∪ and ∩ combine counts; P and P_b choose k_i of
// the m_i copies of every element, P_b counting the Π C(m_i, k_i) ways;
// δ adds each inner count times its outer count; ε sets every count to 1;
// nest groups rows by their key fields; unnest multiplies each inner
// count by its outer count. σ keeps an element when its two bodies give
// equal bags, with Var(0) bound to the element and β(Var(0)) to its
// singleton, so membership (β(x) ∩ ε(B) = β(x)) and ⊑ (x ∩ B = x) are
// σ's. Like the flat model it shares no code with the engines: its only
// engine-side dependencies are the data types (Value accessors, Type,
// BigNat).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/core/type.h"
#include "src/core/value.h"
#include "src/util/bignat.h"
#include "src/util/result.h"
#include "tests/flat_model.h"

namespace bagalg::nested_model {

using model::Cells;
using model::ModelBag;

/// The counts of a flat bag, keyed by row.
using FlatCounts = std::map<Cells, BigNat>;

/// One element of a bag of nesting 2: the cells of its flat fields (none
/// for a bare flat bag) and its flat bag.
struct Elem {
  Cells key;
  FlatCounts inner;
  bool operator<(const Elem& o) const {
    return std::tie(key, inner) < std::tie(o.key, o.inner);
  }
  bool operator==(const Elem& o) const {
    return key == o.key && inner == o.inner;
  }
};

/// A bag of nesting 1 (`flat`) or 2 under evaluation.
struct NBag {
  int nesting = 1;
  ModelBag flat;
  // Nesting 2: elements are [key fields..., bag] when `tupled`, bare flat
  // bags otherwise; the inner bags' rows have shape `inner_shape`.
  bool tupled = false;
  std::vector<Type> key_shapes;
  Type inner_shape = Type::Bottom();
  std::map<Elem, BigNat> counts;

  bool empty() const {
    return nesting == 1 ? flat.counts.empty() : counts.empty();
  }
  /// The element type the engines give a non-empty bag of this shape.
  Type ElementType() const {
    if (nesting == 1) return flat.shape;
    if (!tupled) return Type::Bag(inner_shape);
    std::vector<Type> fields = key_shapes;
    fields.push_back(Type::Bag(inner_shape));
    return Type::Tuple(std::move(fields));
  }
};

/// The counts of a stored flat bag.
inline Result<FlatCounts> CountsOf(const Bag& bag) {
  FlatCounts out;
  for (const BagEntry& e : bag.entries()) {
    Cells cells;
    BAGALG_RETURN_IF_ERROR(model::Flatten(e.value, &cells));
    out[std::move(cells)] += e.count;
  }
  return out;
}

/// A stored bag of nesting at most 2 as a model bag.
inline Result<NBag> FromBag(const Bag& bag) {
  NBag out;
  const Type& elem = bag.element_type();
  if (elem.BagNesting() == 0) {
    BAGALG_ASSIGN_OR_RETURN(out.flat, model::FromBag(bag));
    return out;
  }
  out.nesting = 2;
  if (elem.IsBag()) {
    out.inner_shape = elem.element();
  } else if (elem.IsTuple() && !elem.fields().empty() &&
             elem.fields().back().IsBag()) {
    out.tupled = true;
    out.key_shapes.assign(elem.fields().begin(), elem.fields().end() - 1);
    out.inner_shape = elem.fields().back().element();
  } else {
    return Status::Unsupported("model: element type " + elem.ToString());
  }
  if (out.inner_shape.BagNesting() != 0) {
    return Status::Unsupported("model: nesting above 2");
  }
  for (const BagEntry& e : bag.entries()) {
    Elem el;
    const Value* inner = &e.value;
    if (out.tupled) {
      const std::vector<Value>& fields = e.value.fields();
      for (size_t i = 0; i + 1 < fields.size(); ++i) {
        BAGALG_RETURN_IF_ERROR(model::Flatten(fields[i], &el.key));
      }
      inner = &fields.back();
    }
    BAGALG_ASSIGN_OR_RETURN(el.inner, CountsOf(inner->bag()));
    out.counts[std::move(el)] += e.count;
  }
  return out;
}

/// ⊎, ∸, ∪ or ∩ of two count maps: every key of either side, with its
/// count on both sides (0 when absent), then the operator's count
/// function; zero counts are dropped.
template <typename Key>
std::map<Key, BigNat> Combine(ExprKind kind, const std::map<Key, BigNat>& l,
                              const std::map<Key, BigNat>& r) {
  std::map<Key, std::pair<BigNat, BigNat>> both;
  for (const auto& [k, c] : l) both[k].first = c;
  for (const auto& [k, c] : r) both[k].second = c;
  std::map<Key, BigNat> out;
  for (const auto& [k, lr] : both) {
    const BigNat& a = lr.first;
    const BigNat& b = lr.second;
    BigNat c;
    switch (kind) {
      case ExprKind::kAdditiveUnion:
        c = a + b;
        break;
      case ExprKind::kSubtract:
        c = a.MonusSub(b);
        break;
      case ExprKind::kMaxUnion:
        c = a < b ? b : a;
        break;
      default:
        c = a < b ? a : b;
        break;
    }
    if (!c.IsZero()) out[k] = c;
  }
  return out;
}

/// C(m, k) from Pascal's rule.
inline BigNat Choose(uint64_t m, uint64_t k) {
  std::vector<BigNat> row{BigNat(1)};
  for (uint64_t n = 1; n <= m; ++n) {
    std::vector<BigNat> next(n + 1, BigNat(1));
    for (uint64_t j = 1; j < n; ++j) next[j] = row[j - 1] + row[j];
    row = std::move(next);
  }
  return k <= m ? row[k] : BigNat();
}

/// Every subbag of `in`, each counted once (P) or by the number of ways
/// to choose it from `in` (P_b).
inline Result<NBag> Subbags(const ModelBag& in, bool powerbag) {
  std::vector<std::pair<Cells, uint64_t>> items;
  for (const auto& [cells, c] : in.counts) {
    BAGALG_ASSIGN_OR_RETURN(uint64_t m, c.ToUint64());
    if (m > 64) return Status::Unsupported("model: subbags of a big count");
    items.emplace_back(cells, m);
  }
  NBag out;
  out.nesting = 2;
  out.inner_shape = in.shape;
  // Extends the partial choice `chosen` of items [0, i) by every k for
  // item i.
  auto walk = [&](auto&& self, size_t i, FlatCounts& chosen,
                  const BigNat& ways) -> void {
    if (i == items.size()) {
      out.counts[Elem{{}, chosen}] = powerbag ? ways : BigNat(1);
      return;
    }
    const auto& [cells, m] = items[i];
    for (uint64_t k = 0; k <= m; ++k) {
      if (k != 0) chosen[cells] = BigNat(k);
      self(self, i + 1, chosen, ways * Choose(m, k));
    }
    chosen.erase(cells);
  };
  FlatCounts chosen;
  walk(walk, 0, chosen, BigNat(1));
  return out;
}

/// The leaf offset of each field of `shape`, plus the total width last.
inline std::vector<size_t> FieldOffsets(const Type& shape) {
  std::vector<size_t> offsets{0};
  for (const Type& f : shape.fields()) {
    offsets.push_back(offsets.back() + model::LeafCount(f));
  }
  return offsets;
}

/// True when two model bags hold the same elements with the same counts
/// (bag equality ignores element types).
inline bool SameBag(const NBag& a, const NBag& b) {
  if (a.empty() || b.empty()) return a.empty() && b.empty();
  if (a.nesting != b.nesting) return false;
  return a.nesting == 1 ? a.flat.counts == b.flat.counts
                        : a.counts == b.counts;
}

/// Evaluates `e` over `db`; `x`, when non-null, is the flat bag Var(0)
/// stands for (inside a σ body).
inline Result<NBag> Eval(const Expr& e, const Database& db,
                         const ModelBag* x = nullptr) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::kInput: {
      BAGALG_ASSIGN_OR_RETURN(Bag bag, db.Get(n.name));
      return FromBag(bag);
    }
    case ExprKind::kConst:
      if (!n.literal->IsBag()) {
        return Status::Unsupported("model: non-bag constant");
      }
      return FromBag(n.literal->bag());
    case ExprKind::kVar: {
      if (x == nullptr || n.index != 0) {
        return Status::Unsupported("model: unbound variable");
      }
      NBag out;
      out.flat = *x;
      return out;
    }
    case ExprKind::kBagging: {
      if (x == nullptr || n.children[0]->kind != ExprKind::kVar) {
        return Status::Unsupported("model: β of anything but Var(0)");
      }
      NBag out;
      out.nesting = 2;
      out.inner_shape = x->shape;
      out.counts[Elem{{}, x->counts}] = BigNat(1);
      return out;
    }
    case ExprKind::kAdditiveUnion:
    case ExprKind::kSubtract:
    case ExprKind::kMaxUnion:
    case ExprKind::kIntersect: {
      BAGALG_ASSIGN_OR_RETURN(NBag l, Eval(n.children[0], db, x));
      BAGALG_ASSIGN_OR_RETURN(NBag r, Eval(n.children[1], db, x));
      if (l.nesting != r.nesting) {
        // An empty side has no nesting of its own.
        if (!l.empty() && !r.empty()) {
          return Status::Unsupported("model: operands of two nestings");
        }
        if (l.empty()) l.nesting = r.nesting;
        if (r.empty()) r.nesting = l.nesting;
      }
      NBag out = l.empty() ? r : l;
      if (l.nesting == 1) {
        out.flat.counts = Combine(n.kind, l.flat.counts, r.flat.counts);
      } else {
        out.counts = Combine(n.kind, l.counts, r.counts);
      }
      return out;
    }
    case ExprKind::kPowerset:
    case ExprKind::kPowerbag: {
      BAGALG_ASSIGN_OR_RETURN(NBag in, Eval(n.children[0], db, x));
      if (in.nesting != 1) return Status::Unsupported("model: P of nesting 2");
      return Subbags(in.flat, n.kind == ExprKind::kPowerbag);
    }
    case ExprKind::kBagDestroy: {
      BAGALG_ASSIGN_OR_RETURN(NBag in, Eval(n.children[0], db, x));
      NBag out;
      if (in.empty()) return out;
      if (in.nesting != 2 || in.tupled) {
        return Status::Unsupported("model: δ of a bag of non-bags");
      }
      out.flat.shape = in.inner_shape;
      for (const auto& [el, c] : in.counts) {
        for (const auto& [cells, m] : el.inner) out.flat.counts[cells] += m * c;
      }
      return out;
    }
    case ExprKind::kDupElim: {
      BAGALG_ASSIGN_OR_RETURN(NBag out, Eval(n.children[0], db, x));
      for (auto& [cells, c] : out.flat.counts) c = BigNat(1);
      for (auto& [el, c] : out.counts) c = BigNat(1);
      return out;
    }
    case ExprKind::kNest: {
      BAGALG_ASSIGN_OR_RETURN(NBag in, Eval(n.children[0], db, x));
      NBag out;
      if (in.empty()) return out;
      const Type& shape = in.flat.shape;
      if (in.nesting != 1 || !shape.IsTuple()) {
        return Status::Unsupported("model: nest of a bag of non-tuples");
      }
      std::vector<bool> nested(shape.fields().size(), false);
      for (size_t a : n.attrs) nested.at(a - 1) = true;
      const std::vector<size_t> offsets = FieldOffsets(shape);
      std::vector<Type> nested_shapes;
      for (size_t f = 0; f < nested.size(); ++f) {
        (nested[f] ? nested_shapes : out.key_shapes)
            .push_back(shape.fields()[f]);
      }
      std::map<Cells, FlatCounts> groups;
      for (const auto& [cells, c] : in.flat.counts) {
        Cells key;
        Cells inner;
        for (size_t f = 0; f < nested.size(); ++f) {
          Cells& part = nested[f] ? inner : key;
          part.insert(part.end(), cells.begin() + offsets[f],
                      cells.begin() + offsets[f + 1]);
        }
        groups[key][inner] += c;
      }
      out.nesting = 2;
      out.tupled = true;
      out.inner_shape = Type::Tuple(std::move(nested_shapes));
      for (auto& [key, group] : groups) {
        out.counts[Elem{key, std::move(group)}] = BigNat(1);
      }
      return out;
    }
    case ExprKind::kUnnest: {
      BAGALG_ASSIGN_OR_RETURN(NBag in, Eval(n.children[0], db, x));
      NBag out;
      if (in.empty()) return out;
      if (in.nesting != 2 || !in.tupled ||
          n.attrs[0] != in.key_shapes.size() + 1) {
        return Status::Unsupported("model: unnest of a non-final field");
      }
      std::vector<Type> fields = in.key_shapes;
      fields.push_back(in.inner_shape);
      out.flat.shape = Type::Tuple(std::move(fields));
      for (const auto& [el, c] : in.counts) {
        for (const auto& [cells, m] : el.inner) {
          Cells row = el.key;
          row.insert(row.end(), cells.begin(), cells.end());
          out.flat.counts[std::move(row)] += c * m;
        }
      }
      return out;
    }
    case ExprKind::kSelect: {
      BAGALG_ASSIGN_OR_RETURN(NBag in, Eval(n.children[2], db, x));
      if (in.empty()) return in;
      if (in.nesting != 2 || in.tupled) {
        return Status::Unsupported("model: σ over anything but bags of bags");
      }
      NBag out = in;
      out.counts.clear();
      for (const auto& [el, c] : in.counts) {
        const ModelBag element{in.inner_shape, el.inner};
        BAGALG_ASSIGN_OR_RETURN(NBag l, Eval(n.children[0], db, &element));
        BAGALG_ASSIGN_OR_RETURN(NBag r, Eval(n.children[1], db, &element));
        if (SameBag(l, r)) out.counts[el] = c;
      }
      return out;
    }
    default:
      return Status::Unsupported(std::string("model: operator ") +
                                 ExprKindName(n.kind));
  }
}

/// Empty when `got` holds what `want` holds, with `want`'s element type
/// when it is not empty; otherwise a description of the difference.
inline std::string Diff(const Bag& got, const NBag& want) {
  Result<NBag> have = FromBag(got);
  if (!have.ok()) return have.status().ToString();
  if (!want.empty() && !(got.element_type() == want.ElementType())) {
    return "element type " + got.element_type().ToString() + " vs model " +
           want.ElementType().ToString();
  }
  if (!SameBag(*have, want)) {
    const size_t n = have->nesting == 1 ? have->flat.counts.size()
                                        : have->counts.size();
    const size_t m =
        want.nesting == 1 ? want.flat.counts.size() : want.counts.size();
    return got.ToString() + " (" + std::to_string(n) +
           " distinct) differs from the model (" + std::to_string(m) +
           " distinct)";
  }
  return std::string();
}

}  // namespace bagalg::nested_model

#endif  // BAGALG_TESTS_NESTED_MODEL_H_
