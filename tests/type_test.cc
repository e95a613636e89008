// Tests for the complex-object type system (paper §2): construction, bag
// nesting, equality, the Bottom order (Accepts/Join), and rendering.

#include "src/core/type.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bagalg {
namespace {

Type U() { return Type::Atom(); }

TEST(TypeTest, AtomBasics) {
  Type u = U();
  EXPECT_TRUE(u.IsAtom());
  EXPECT_EQ(u.BagNesting(), 0);
  EXPECT_EQ(u.ToString(), "U");
}

TEST(TypeTest, TupleBasics) {
  Type t = Type::Tuple({U(), U()});
  EXPECT_TRUE(t.IsTuple());
  EXPECT_EQ(t.fields().size(), 2u);
  EXPECT_EQ(t.BagNesting(), 0);
  EXPECT_EQ(t.ToString(), "[U, U]");
}

TEST(TypeTest, EmptyTupleAllowed) {
  Type t = Type::Tuple({});
  EXPECT_TRUE(t.IsTuple());
  EXPECT_EQ(t.ToString(), "[]");
}

TEST(TypeTest, BagNestingCountsBagConstructorsOnPath) {
  // {{ [ U, {{U}} ] }} has nesting 2: the outer bag plus the inner bag.
  Type t = Type::Bag(Type::Tuple({U(), Type::Bag(U())}));
  EXPECT_EQ(t.BagNesting(), 2);
  // Tuple of two bags side by side: nesting 1 (max over paths, not sum).
  Type s = Type::Tuple({Type::Bag(U()), Type::Bag(U())});
  EXPECT_EQ(s.BagNesting(), 1);
}

TEST(TypeTest, DeepNesting) {
  Type t = U();
  for (int i = 1; i <= 5; ++i) {
    t = Type::Bag(t);
    EXPECT_EQ(t.BagNesting(), i);
  }
  EXPECT_EQ(t.ToString(), "{{{{{{{{{{U}}}}}}}}}}");
}

TEST(TypeTest, StructuralEquality) {
  Type a = Type::Bag(Type::Tuple({U(), U()}));
  Type b = Type::Bag(Type::Tuple({U(), U()}));
  Type c = Type::Bag(Type::Tuple({U()}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a, U());
}

TEST(TypeTest, DefaultIsBottom) {
  Type t;
  EXPECT_TRUE(t.IsBottom());
  EXPECT_EQ(t.ToString(), "_");
  EXPECT_EQ(t.BagNesting(), 0);
}

TEST(TypeTest, AcceptsBottomAnywhere) {
  Type target = Type::Bag(Type::Tuple({U(), Type::Bag(U())}));
  EXPECT_TRUE(target.Accepts(Type::Bottom()));
  EXPECT_TRUE(target.Accepts(Type::Bag(Type::Bottom())));
  EXPECT_TRUE(
      target.Accepts(Type::Bag(Type::Tuple({U(), Type::Bag(Type::Bottom())}))));
  EXPECT_TRUE(target.Accepts(target));
  EXPECT_FALSE(target.Accepts(Type::Bag(U())));
  EXPECT_FALSE(Type::Bottom().Accepts(U()));
}

TEST(TypeTest, JoinWithBottom) {
  Type t = Type::Bag(U());
  auto j1 = Type::Join(t, Type::Bottom());
  ASSERT_TRUE(j1.ok());
  EXPECT_EQ(*j1, t);
  auto j2 = Type::Join(Type::Bottom(), t);
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ(*j2, t);
}

TEST(TypeTest, JoinRefinesNestedBottoms) {
  Type partial = Type::Tuple({Type::Bottom(), Type::Bag(U())});
  Type other = Type::Tuple({U(), Type::Bag(Type::Bottom())});
  auto j = Type::Join(partial, other);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(*j, Type::Tuple({U(), Type::Bag(U())}));
}

TEST(TypeTest, JoinIncompatibleKindsFails) {
  auto j = Type::Join(U(), Type::Bag(U()));
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kTypeError);
}

TEST(TypeTest, JoinArityMismatchFails) {
  auto j = Type::Join(Type::Tuple({U()}), Type::Tuple({U(), U()}));
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kTypeError);
}

TEST(TypeTest, JoinIsCommutativeAndIdempotent) {
  Type a = Type::Bag(Type::Tuple({U(), Type::Bottom()}));
  Type b = Type::Bag(Type::Tuple({Type::Bottom(), U()}));
  auto ab = Type::Join(a, b);
  auto ba = Type::Join(b, a);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(*ab, *ba);
  auto aa = Type::Join(a, a);
  ASSERT_TRUE(aa.ok());
  EXPECT_EQ(*aa, a);
}

TEST(TypeTest, CopyIsCheapAndShared) {
  Type a = Type::Bag(Type::Tuple({U(), U()}));
  Type b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(TypeTest, SharedFlatTuplesAgreeWithStructuralTypes) {
  // Arities up to the bound share one rep; above it FlatTuple builds a
  // fresh rep and == falls back to the structural walk.
  for (size_t k = 0; k <= Type::kSharedFlatArity + 4; ++k) {
    SCOPED_TRACE(k);
    const std::vector<Type> atoms(k, U());
    Type flat = Type::FlatTuple(k);
    Type built = Type::Tuple(atoms);
    EXPECT_EQ(&flat.fields() == &built.fields(), k <= Type::kSharedFlatArity);
    EXPECT_EQ(flat, built);
    EXPECT_EQ(flat.Hash(), built.Hash());
    EXPECT_EQ(flat.BagNesting(), 0);
    ASSERT_EQ(flat.fields().size(), k);
    for (const Type& f : flat.fields()) EXPECT_TRUE(f.IsAtom());
    std::string rendered = "[";
    for (size_t i = 0; i < k; ++i) rendered += i == 0 ? "U" : ", U";
    EXPECT_EQ(flat.ToString(), rendered + "]");
    EXPECT_TRUE(flat.Accepts(built));
    EXPECT_EQ(Type::Bag(flat), Type::Bag(built));
    EXPECT_EQ(Type::Bag(flat).Hash(), Type::Bag(built).Hash());
    auto self = Type::Join(flat, built);
    ASSERT_TRUE(self.ok());
    EXPECT_EQ(*self, flat);

    Type wider = Type::FlatTuple(k + 1);
    EXPECT_NE(flat, wider);
    EXPECT_FALSE(flat.Accepts(wider));
    EXPECT_EQ(Type::Join(flat, wider).status().code(), StatusCode::kTypeError);
    if (k == 0) continue;

    // One Bottom field: accepted by the flat type and joined up to it.
    std::vector<Type> partial_fields = atoms;
    partial_fields[k - 1] = Type::Bottom();
    Type partial = Type::Tuple(partial_fields);
    EXPECT_NE(partial, flat);
    EXPECT_TRUE(flat.Accepts(partial));
    EXPECT_FALSE(partial.Accepts(flat));
    for (auto joined : {Type::Join(flat, partial), Type::Join(partial, flat)}) {
      ASSERT_TRUE(joined.ok());
      EXPECT_EQ(*joined, flat);
      EXPECT_EQ(joined->Hash(), flat.Hash());
    }

    // One bag field: a different type that does not join with the flat one.
    std::vector<Type> nested_fields = atoms;
    nested_fields[0] = Type::Bag(U());
    Type nested = Type::Tuple(nested_fields);
    EXPECT_NE(nested, flat);
    EXPECT_EQ(nested.BagNesting(), 1);
    EXPECT_FALSE(flat.Accepts(nested));
    EXPECT_EQ(Type::Join(flat, nested).status().code(),
              StatusCode::kTypeError);
  }
}

}  // namespace
}  // namespace bagalg
