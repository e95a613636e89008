#include "src/relational/relation.h"

namespace bagalg::relational {

Result<Relation> Relation::FromTuples(std::vector<Value> tuples) {
  Relation r;
  size_t arity = 0;
  bool first = true;
  for (Value& t : tuples) {
    if (!t.IsTuple()) {
      return Status::InvalidArgument("relations hold tuples, got " +
                                     t.type().ToString());
    }
    if (first) {
      arity = t.fields().size();
      first = false;
    } else if (t.fields().size() != arity) {
      return Status::InvalidArgument("mixed arities in relation");
    }
    r.tuples_.insert(std::move(t));
  }
  return r;
}

Result<Relation> Relation::FromBag(const Bag& bag) {
  std::vector<Value> tuples;
  tuples.reserve(bag.DistinctCount());
  ValueWalk walk(bag);
  for (size_t i = 0; i < walk.size(); ++i) tuples.push_back(walk.ElementAt(i));
  return FromTuples(std::move(tuples));
}

Bag Relation::ToBag() const {
  Bag::Builder builder;
  for (const Value& t : tuples_) builder.AddOne(t);
  auto bag = std::move(builder).Build();
  // Homogeneity is guaranteed by construction.
  return bag.ok() ? std::move(bag).value() : Bag();
}

Relation Relation::Union(const Relation& other) const {
  Relation r = *this;
  r.tuples_.insert(other.tuples_.begin(), other.tuples_.end());
  return r;
}

Relation Relation::Intersect(const Relation& other) const {
  Relation r;
  for (const Value& t : tuples_) {
    if (other.Contains(t)) r.tuples_.insert(t);
  }
  return r;
}

Relation Relation::Difference(const Relation& other) const {
  Relation r;
  for (const Value& t : tuples_) {
    if (!other.Contains(t)) r.tuples_.insert(t);
  }
  return r;
}

Relation Relation::Product(const Relation& other) const {
  Relation r;
  for (const Value& a : tuples_) {
    for (const Value& b : other.tuples_) {
      std::vector<Value> fields = a.fields();
      fields.insert(fields.end(), b.fields().begin(), b.fields().end());
      r.tuples_.insert(Value::Tuple(std::move(fields)));
    }
  }
  return r;
}

Result<Relation> Relation::Project(const std::vector<size_t>& attrs) const {
  Relation r;
  for (const Value& t : tuples_) {
    std::vector<Value> fields;
    fields.reserve(attrs.size());
    for (size_t a : attrs) {
      if (a < 1 || a > t.fields().size()) {
        return Status::InvalidArgument("projection attribute out of range");
      }
      fields.push_back(t.fields()[a - 1]);
    }
    r.tuples_.insert(Value::Tuple(std::move(fields)));
  }
  return r;
}

Relation Relation::Select(
    const std::function<bool(const Value&)>& pred) const {
  Relation r;
  for (const Value& t : tuples_) {
    if (pred(t)) r.tuples_.insert(t);
  }
  return r;
}

Result<Relation> Relation::SelectEqAttrs(size_t i, size_t j) const {
  for (const Value& t : tuples_) {
    if (i < 1 || j < 1 || i > t.fields().size() || j > t.fields().size()) {
      return Status::InvalidArgument("selection attribute out of range");
    }
  }
  return Select([i, j](const Value& t) {
    return t.fields()[i - 1] == t.fields()[j - 1];
  });
}

Result<Relation> Relation::SelectEqConst(size_t i, const Value& c) const {
  for (const Value& t : tuples_) {
    if (i < 1 || i > t.fields().size()) {
      return Status::InvalidArgument("selection attribute out of range");
    }
  }
  return Select([i, &c](const Value& t) { return t.fields()[i - 1] == c; });
}

}  // namespace bagalg::relational
