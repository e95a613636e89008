#include "src/core/iso.h"

#include <cassert>

namespace bagalg {

AtomId Isomorphism::Apply(AtomId id) const {
  auto it = mapping_.find(id);
  return it == mapping_.end() ? id : it->second;
}

Value Isomorphism::Apply(const Value& value) const {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      return Value::Atom(Apply(value.atom_id()));
    case Value::Kind::kTuple: {
      std::vector<Value> fields;
      fields.reserve(value.fields().size());
      for (const Value& f : value.fields()) fields.push_back(Apply(f));
      return Value::Tuple(std::move(fields));
    }
    case Value::Kind::kBag: {
      auto bag = Apply(value.bag());
      assert(bag.ok());  // renaming preserves homogeneity
      return Value::FromBag(std::move(bag).value());
    }
  }
  return value;
}

Result<Bag> Isomorphism::Apply(const Bag& bag) const {
  Bag::Builder builder(bag.element_type());
  ValueWalk walk(bag);
  for (size_t i = 0; i < walk.size(); ++i) {
    builder.Add(Apply(walk.ElementAt(i)), walk.CountAt(i));
  }
  return std::move(builder).Build();
}

Isomorphism Isomorphism::Inverse() const {
  Isomorphism inv;
  for (const auto& [from, to] : mapping_) {
    assert(inv.mapping_.find(to) == inv.mapping_.end() &&
           "Isomorphism::Inverse on a non-injective mapping");
    inv.Map(to, from);
  }
  return inv;
}

Isomorphism Isomorphism::RandomPermutation(const std::vector<AtomId>& atoms,
                                           Rng& rng) {
  std::vector<AtomId> shuffled = atoms;
  // Fisher-Yates.
  for (size_t i = shuffled.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.Below(i));
    std::swap(shuffled[i - 1], shuffled[j]);
  }
  Isomorphism iso;
  for (size_t i = 0; i < atoms.size(); ++i) {
    iso.Map(atoms[i], shuffled[i]);
  }
  return iso;
}

void CollectAtoms(const Value& value, std::unordered_set<AtomId>* out) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      out->insert(value.atom_id());
      return;
    case Value::Kind::kTuple:
      for (const Value& f : value.fields()) CollectAtoms(f, out);
      return;
    case Value::Kind::kBag:
      CollectAtoms(value.bag(), out);
      return;
  }
}

void CollectAtoms(const Bag& bag, std::unordered_set<AtomId>* out) {
  ValueWalk walk(bag);
  for (size_t i = 0; i < walk.size(); ++i) CollectAtoms(walk.ElementAt(i), out);
}

}  // namespace bagalg
