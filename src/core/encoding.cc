#include "src/core/encoding.h"

namespace bagalg {

namespace {

/// Encoding size of every value of a type that holds no bag: one symbol
/// per atom and per tuple constructor.
uint64_t FlatValueSize(const Type& type) {
  if (!type.IsTuple()) return 1;
  uint64_t total = 1;
  for (const Type& f : type.fields()) total += FlatValueSize(f);
  return total;
}

}  // namespace

BigNat StandardEncodingSize(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      return BigNat(1);
    case Value::Kind::kTuple: {
      BigNat total(1);
      for (const Value& f : value.fields()) total += StandardEncodingSize(f);
      return total;
    }
    case Value::Kind::kBag:
      return StandardEncodingSize(value.bag()) + BigNat(1);
  }
  return BigNat();
}

BigNat StandardEncodingSize(const Bag& bag) {
  if (bag.flat_rows() != nullptr) {
    if (bag.empty()) return BigNat();
    return bag.TotalCount() * BigNat(FlatValueSize(bag.element_type()));
  }
  BigNat total;
  for (const BagEntry& e : bag.nested_entries()) {
    total += e.count * StandardEncodingSize(e.value);
  }
  return total;
}

uint64_t CountedEncodingSize(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      return 1;
    case Value::Kind::kTuple: {
      uint64_t total = 1;
      for (const Value& f : value.fields()) total += CountedEncodingSize(f);
      return total;
    }
    case Value::Kind::kBag:
      return CountedEncodingSize(value.bag()) + 1;
  }
  return 0;
}

uint64_t CountedEncodingSize(const Bag& bag) {
  uint64_t total = 0;
  if (const FlatRows* rows = bag.flat_rows()) {
    const uint64_t value_size =
        rows->empty() ? 0 : FlatValueSize(bag.element_type());
    for (const Mult& count : rows->counts) {
      total += value_size;
      total += count.LimbCount() == 0 ? 1 : count.LimbCount();
    }
    return total;
  }
  for (const BagEntry& e : bag.nested_entries()) {
    total += CountedEncodingSize(e.value);
    total += e.count.LimbCount() == 0 ? 1 : e.count.LimbCount();
  }
  return total;
}

BigNat MaxMultiplicity(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      return BigNat();
    case Value::Kind::kTuple: {
      BigNat best;
      for (const Value& f : value.fields()) {
        BigNat m = MaxMultiplicity(f);
        if (m > best) best = std::move(m);
      }
      return best;
    }
    case Value::Kind::kBag:
      return MaxMultiplicity(value.bag());
  }
  return BigNat();
}

BigNat MaxMultiplicity(const Bag& bag) {
  BigNat best;
  if (const FlatRows* rows = bag.flat_rows()) {
    for (const Mult& count : rows->counts) {
      if (count > best) best = count;
    }
    return best;
  }
  for (const BagEntry& e : bag.nested_entries()) {
    if (e.count > best) best = e.count;
    BigNat inner = MaxMultiplicity(e.value);
    if (inner > best) best = std::move(inner);
  }
  return best;
}

}  // namespace bagalg
