#ifndef BAGALG_TESTS_FLAT_MODEL_H_
#define BAGALG_TESTS_FLAT_MODEL_H_

// A reference model of flat BALG¹ for differential tests of `exec`.
//
// A model bag is a std::map from a row's atom ids (its leaves, left to
// right) to its multiplicity, and every operator is the paper's §3
// definition written out naively over that map: ⊎ adds, ∸ subtracts
// truncated, ∪ takes the max, ∩ the min, × concatenates rows and
// multiplies, σ and MAP walk the rows, ε sets every count to 1. The
// model shares no code with the engines' kernels: no Bag::Builder, no
// bag_ops, no Value::Compare, no IR. Its only engine-side dependencies
// are the data types themselves (Value accessors, Type, BigNat).
//
// Bag nesting is 1: rows hold no bags. A row's shape (its Type) rides
// beside its cells so that lambda bodies can project attributes.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/core/type.h"
#include "src/core/value.h"
#include "src/util/bignat.h"
#include "src/util/result.h"

namespace bagalg::model {

/// Atom ids of one row, leaves left to right.
using Cells = std::vector<AtomId>;

/// A bag of flat rows: shape of its rows (Bottom when empty) and counts.
struct ModelBag {
  Type shape = Type::Bottom();
  std::map<Cells, BigNat> counts;
};

/// One row under evaluation: its shape and its cells.
struct ModelRow {
  Type shape;
  Cells cells;
};

/// Number of atom leaves of a row shape.
inline size_t LeafCount(const Type& shape) {
  if (shape.IsAtom()) return 1;
  size_t n = 0;
  if (shape.IsTuple()) {
    for (const Type& f : shape.fields()) n += LeafCount(f);
  }
  return n;
}

/// Appends the atom leaves of `v`; fails on a bag inside the row.
inline Status Flatten(const Value& v, Cells* out) {
  switch (v.kind()) {
    case Value::Kind::kAtom:
      out->push_back(v.atom_id());
      return Status::Ok();
    case Value::Kind::kTuple:
      for (const Value& f : v.fields()) {
        BAGALG_RETURN_IF_ERROR(Flatten(f, out));
      }
      return Status::Ok();
    case Value::Kind::kBag:
      return Status::Unsupported("model: a bag inside a row");
  }
  return Status::Internal("model: unknown value kind");
}

/// A stored bag as a model bag.
inline Result<ModelBag> FromBag(const Bag& bag) {
  ModelBag out;
  for (const BagEntry& e : bag.entries()) {
    Cells cells;
    BAGALG_RETURN_IF_ERROR(Flatten(e.value, &cells));
    out.shape = e.value.type();
    out.counts[std::move(cells)] += e.count;
  }
  return out;
}

/// Drops zero counts and resets the shape of an empty result.
inline ModelBag Normalize(ModelBag b) {
  for (auto it = b.counts.begin(); it != b.counts.end();) {
    it = it->second.IsZero() ? b.counts.erase(it) : std::next(it);
  }
  if (b.counts.empty()) b.shape = Type::Bottom();
  return b;
}

/// Evaluates an object-level lambda body over one row.
inline Result<ModelRow> EvalBody(const Expr& body, const ModelRow& row) {
  const ExprNode& n = body.node();
  switch (n.kind) {
    case ExprKind::kVar:
      if (n.index != 0) return Status::Unsupported("model: nested binder");
      return row;
    case ExprKind::kConst: {
      ModelRow out;
      out.shape = n.literal->type();
      BAGALG_RETURN_IF_ERROR(Flatten(*n.literal, &out.cells));
      return out;
    }
    case ExprKind::kAttrProj: {
      BAGALG_ASSIGN_OR_RETURN(ModelRow t, EvalBody(n.children[0], row));
      if (!t.shape.IsTuple() || n.index < 1 ||
          n.index > t.shape.fields().size()) {
        return Status::InvalidArgument("model: bad attribute projection");
      }
      size_t offset = 0;
      for (size_t i = 0; i + 1 < n.index; ++i) {
        offset += LeafCount(t.shape.fields()[i]);
      }
      ModelRow out;
      out.shape = t.shape.fields()[n.index - 1];
      const size_t width = LeafCount(out.shape);
      out.cells.assign(t.cells.begin() + offset,
                       t.cells.begin() + offset + width);
      return out;
    }
    case ExprKind::kTupling: {
      ModelRow out;
      std::vector<Type> fields;
      for (const Expr& c : n.children) {
        BAGALG_ASSIGN_OR_RETURN(ModelRow f, EvalBody(c, row));
        fields.push_back(f.shape);
        out.cells.insert(out.cells.end(), f.cells.begin(), f.cells.end());
      }
      out.shape = Type::Tuple(std::move(fields));
      return out;
    }
    default:
      return Status::Unsupported(std::string("model: lambda operator ") +
                                 ExprKindName(n.kind));
  }
}

/// Evaluates a flat BALG¹ expression: inputs, bag constants, ⊎, ∸, ∪, ∩,
/// ×, σ, MAP and ε.
inline Result<ModelBag> Eval(const Expr& e, const Database& db) {
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
    case ExprKind::kAdditiveUnion:
    case ExprKind::kSubtract:
    case ExprKind::kMaxUnion:
    case ExprKind::kIntersect: {
      BAGALG_ASSIGN_OR_RETURN(ModelBag l, Eval(n.children[0], db));
      BAGALG_ASSIGN_OR_RETURN(ModelBag r, Eval(n.children[1], db));
      ModelBag out;
      out.shape = l.counts.empty() ? r.shape : l.shape;
      // Every row of either side, with its count on both sides (0 when
      // absent), then the operator's count function.
      std::map<Cells, std::pair<BigNat, BigNat>> both;
      for (const auto& [cells, c] : l.counts) both[cells].first = c;
      for (const auto& [cells, c] : r.counts) both[cells].second = c;
      for (const auto& [cells, lr] : both) {
        const BigNat& a = lr.first;
        const BigNat& b = lr.second;
        BigNat c;
        switch (n.kind) {
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
        out.counts[cells] = c;
      }
      return Normalize(std::move(out));
    }
    case ExprKind::kProduct: {
      BAGALG_ASSIGN_OR_RETURN(ModelBag l, Eval(n.children[0], db));
      BAGALG_ASSIGN_OR_RETURN(ModelBag r, Eval(n.children[1], db));
      ModelBag out;
      if (l.counts.empty() || r.counts.empty()) return out;
      if (!l.shape.IsTuple() || !r.shape.IsTuple()) {
        return Status::InvalidArgument("model: product of non-tuple rows");
      }
      std::vector<Type> fields = l.shape.fields();
      fields.insert(fields.end(), r.shape.fields().begin(),
                    r.shape.fields().end());
      out.shape = Type::Tuple(std::move(fields));
      for (const auto& [lc, ln] : l.counts) {
        for (const auto& [rc, rn] : r.counts) {
          Cells row = lc;
          row.insert(row.end(), rc.begin(), rc.end());
          out.counts[std::move(row)] += ln * rn;
        }
      }
      return out;
    }
    case ExprKind::kSelect: {
      BAGALG_ASSIGN_OR_RETURN(ModelBag in, Eval(n.children[2], db));
      ModelBag out;
      out.shape = in.shape;
      for (const auto& [cells, c] : in.counts) {
        const ModelRow row{in.shape, cells};
        BAGALG_ASSIGN_OR_RETURN(ModelRow l, EvalBody(n.children[0], row));
        BAGALG_ASSIGN_OR_RETURN(ModelRow r, EvalBody(n.children[1], row));
        if (l.shape == r.shape && l.cells == r.cells) out.counts[cells] = c;
      }
      return Normalize(std::move(out));
    }
    case ExprKind::kMap: {
      BAGALG_ASSIGN_OR_RETURN(ModelBag in, Eval(n.children[1], db));
      ModelBag out;
      for (const auto& [cells, c] : in.counts) {
        BAGALG_ASSIGN_OR_RETURN(
            ModelRow image, EvalBody(n.children[0], ModelRow{in.shape, cells}));
        out.shape = image.shape;
        out.counts[image.cells] += c;
      }
      return out;
    }
    case ExprKind::kDupElim: {
      BAGALG_ASSIGN_OR_RETURN(ModelBag out, Eval(n.children[0], db));
      for (auto& [cells, c] : out.counts) c = BigNat(1);
      return out;
    }
    default:
      return Status::Unsupported(std::string("model: operator ") +
                                 ExprKindName(n.kind));
  }
}

/// Empty when `got` is the canonical form of `want`: the same element
/// type, entries strictly ascending in the model's own row order (atom
/// ids, lexicographically), and the same counts. Otherwise a description
/// of the first difference. An empty result's element type is checked
/// (Bottom) only with `empty_is_bottom`: the evaluator keeps the declared
/// type of an empty operand, and bag equality ignores element types.
inline std::string Diff(const Bag& got, const ModelBag& want,
                        bool empty_is_bottom = true) {
  if ((empty_is_bottom || !want.counts.empty()) &&
      !(got.element_type() == want.shape)) {
    return "element type " + got.element_type().ToString() + " vs model " +
           want.shape.ToString();
  }
  if (got.entries().size() != want.counts.size()) {
    return std::to_string(got.entries().size()) + " entries vs model " +
           std::to_string(want.counts.size());
  }
  auto it = want.counts.begin();
  for (const BagEntry& e : got.entries()) {
    Cells cells;
    Status flat = Flatten(e.value, &cells);
    if (!flat.ok()) return flat.ToString();
    if (cells != it->first) {
      return "entry " + e.value.ToString() + " out of place or not in model";
    }
    if (e.count != it->second) {
      return "entry " + e.value.ToString() + " count " + e.count.ToString() +
             " vs model " + it->second.ToString();
    }
    ++it;
  }
  return std::string();
}

}  // namespace bagalg::model

#endif  // BAGALG_TESTS_FLAT_MODEL_H_
