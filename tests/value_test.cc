// Tests for complex-object values and canonical counted bags (paper §2):
// construction, n-membership, canonicalization, ordering, subbag relation,
// rendering, and the standard-encoding size measure.

#include "src/core/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/encoding.h"
#include "src/core/iso.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }

TEST(ValueTest, AtomBasics) {
  Value a = A("a");
  EXPECT_TRUE(a.IsAtom());
  EXPECT_EQ(a.type(), Type::Atom());
  EXPECT_EQ(a.ToString(), "a");
  EXPECT_EQ(a, A("a"));
  EXPECT_NE(a, A("b"));
}

TEST(ValueTest, TupleBasics) {
  Value t = MakeTuple({A("a"), A("b")});
  EXPECT_TRUE(t.IsTuple());
  EXPECT_EQ(t.fields().size(), 2u);
  EXPECT_EQ(t.type(), Type::Tuple({Type::Atom(), Type::Atom()}));
  EXPECT_EQ(t.ToString(), "[a, b]");
}

TEST(ValueTest, DefaultValueIsEmptyTuple) {
  Value v;
  EXPECT_TRUE(v.IsTuple());
  EXPECT_EQ(v.fields().size(), 0u);
  EXPECT_EQ(v, Value::Tuple({}));
  EXPECT_EQ(v.Hash(), Value::Tuple({}).Hash());
  EXPECT_EQ(v.type(), Type::Tuple({}));
  // Every default value shares one rep.
  EXPECT_EQ(&v.fields(), &Value().fields());
}

TEST(ValueTest, FlatTuplesShareTheirType) {
  for (size_t k = 0; k <= Type::kSharedFlatArity + 2; ++k) {
    SCOPED_TRACE(k);
    std::vector<Value> fields;
    for (size_t i = 0; i < k; ++i) fields.push_back(A(i % 2 ? "a" : "b"));
    Value row = Value::Tuple(fields);
    EXPECT_EQ(row.type(), Type::Tuple(std::vector<Type>(k, Type::Atom())));
    EXPECT_EQ(&row.type().fields() == &Type::FlatTuple(k).fields(),
              k <= Type::kSharedFlatArity);
  }
  Value nested = MakeTuple({A("a"), Value::FromBag(MakeBagOf({A("b")}))});
  EXPECT_EQ(nested.type(),
            Type::Tuple({Type::Atom(), Type::Bag(Type::Atom())}));
}

TEST(ValueTest, NestedBagValue) {
  Bag inner = MakeBagOf({A("a"), A("b")});
  Value v = Value::FromBag(inner);
  EXPECT_TRUE(v.IsBag());
  EXPECT_EQ(v.type(), Type::Bag(Type::Atom()));
  EXPECT_EQ(v.bag(), inner);
}

TEST(BagTest, CanonicalizationMergesDuplicates) {
  Bag b = MakeBag({{A("b"), 2}, {A("a"), 1}, {A("b"), 3}});
  ASSERT_EQ(b.DistinctCount(), 2u);
  // Entries are sorted by the value order (atom ids) and counts merged.
  EXPECT_LT(b.entries()[0].value.Compare(b.entries()[1].value), 0);
  EXPECT_EQ(b.CountOf(A("a")), Mult(1));
  EXPECT_EQ(b.CountOf(A("b")), Mult(5));
  EXPECT_EQ(b.TotalCount(), Mult(6));
}

TEST(BagTest, NMembership) {
  // "an element n-belongs to a bag if it has exactly n occurrences" (§2).
  Bag b = MakeBag({{A("a"), 3}, {A("c"), 1}});
  EXPECT_EQ(b.CountOf(A("a")), Mult(3));
  EXPECT_EQ(b.CountOf(A("c")), Mult(1));
  EXPECT_EQ(b.CountOf(A("zz")), Mult(0));
  EXPECT_TRUE(b.Contains(A("a")));
  EXPECT_FALSE(b.Contains(A("zz")));
}

TEST(BagTest, ZeroCountAdditionsIgnored) {
  Bag::Builder builder;
  builder.Add(A("a"), Mult(0));
  auto b = std::move(builder).Build();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
}

TEST(BagTest, InhomogeneousBuildFails) {
  Bag::Builder builder;
  builder.AddOne(A("a"));
  builder.AddOne(MakeTuple({A("a")}));
  auto b = std::move(builder).Build();
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kTypeError);
}

TEST(BagTest, DeclaredElementTypeSurvivesEmptiness) {
  Bag b(Type::Tuple({Type::Atom()}));
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.element_type(), Type::Tuple({Type::Atom()}));
  EXPECT_EQ(b.type(), Type::Bag(Type::Tuple({Type::Atom()})));
}

TEST(BagTest, EmptyBagsEqualRegardlessOfElementType) {
  Bag a(Type::Atom());
  Bag b(Type::Tuple({Type::Atom(), Type::Atom()}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(BagTest, SetLikeDetection) {
  EXPECT_TRUE(MakeBagOf({A("a"), A("b")}).IsSetLike());
  EXPECT_FALSE(MakeBag({{A("a"), 2}}).IsSetLike());
  EXPECT_TRUE(Bag().IsSetLike());
}

TEST(BagTest, ColumnFactsMatchABruteForceScan) {
  Rng rng(11);
  for (size_t trial = 0; trial < 40; ++trial) {
    FlatBagSpec spec;
    spec.arity = 1 + trial % 3;
    spec.num_atoms = 2 + trial % 7;
    spec.num_elements = 1 + trial % 12;
    Bag bag = RandomFlatBag(rng, spec);
    const Bag::ColumnFacts& facts = bag.column_facts();
    ASSERT_EQ(facts.constant.size(), spec.arity);
    ASSERT_EQ(facts.unique.size(), spec.arity);
    for (size_t c = 0; c < spec.arity; ++c) {
      std::set<Value> seen;
      for (const BagEntry& e : bag.entries()) seen.insert(e.value.fields()[c]);
      EXPECT_EQ(facts.constant[c], seen.size() == 1) << bag << " col " << c;
      EXPECT_EQ(facts.unique[c], seen.size() == bag.DistinctCount())
          << bag << " col " << c;
    }
    // Cached on the bag: copies hand back the very same facts.
    const Bag copy = bag;
    EXPECT_EQ(&copy.column_facts(), &facts);
  }
  EXPECT_TRUE(MakeBagOf({A("a"), A("b")}).column_facts().constant.empty());
  EXPECT_TRUE(Bag().column_facts().unique.empty());
}

TEST(BagTest, FlatCellsHoldTheAtomsOfEveryEntryInOrder) {
  Bag bag = MakeBag({{MakeTuple({MakeTuple({A("b"), A("a")}), A("c")}), 2},
                     {MakeTuple({MakeTuple({A("a"), A("c")}), A("b")}), 1}});
  const FlatRows* flat = bag.flat_rows();
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->width, 3u);
  std::vector<AtomId> want;
  for (const BagEntry& e : bag.entries()) {
    const Value& inner = e.value.fields()[0];
    want.push_back(inner.fields()[0].atom_id());
    want.push_back(inner.fields()[1].atom_id());
    want.push_back(e.value.fields()[1].atom_id());
  }
  EXPECT_EQ(flat->cells, want);
  // Field 1 spans two cells; neither column repeats.
  EXPECT_EQ(bag.column_facts().unique, (std::vector<bool>{true, true}));
  EXPECT_EQ(Bag().flat_rows()->width, 0u);
  const Bag nested = MakeBagOf({Value::FromBag(MakeBagOf({A("a")}))});
  EXPECT_EQ(nested.flat_rows(), nullptr);
  EXPECT_TRUE(nested.column_facts().constant.empty());
}

TEST(BagTest, SubBagRelation) {
  Bag big = MakeBag({{A("a"), 3}, {A("b"), 1}});
  EXPECT_TRUE(MakeBag({{A("a"), 2}}).SubBagOf(big));
  EXPECT_TRUE(MakeBag({{A("a"), 3}, {A("b"), 1}}).SubBagOf(big));
  EXPECT_TRUE(Bag().SubBagOf(big));
  EXPECT_FALSE(MakeBag({{A("a"), 4}}).SubBagOf(big));
  EXPECT_FALSE(MakeBag({{A("zzz"), 1}}).SubBagOf(big));
  EXPECT_FALSE(big.SubBagOf(MakeBag({{A("a"), 3}})));
}

TEST(BagTest, NCopiesBuildsThePaperBn) {
  Bag bn = NCopies(Mult(7), MakeTuple({A("a")}));
  EXPECT_EQ(bn.DistinctCount(), 1u);
  EXPECT_EQ(bn.TotalCount(), Mult(7));
}

TEST(ValueTest, TotalOrderIsConsistent) {
  // atoms < tuples < bags; recursive lexicographic within kinds.
  std::vector<Value> values = {
      A("a"),
      MakeTuple({A("a")}),
      Value::FromBag(MakeBagOf({A("a")})),
      MakeTuple({A("a"), A("b")}),
      Value::FromBag(MakeBag({{A("a"), 2}})),
  };
  for (const Value& x : values) {
    EXPECT_EQ(x.Compare(x), 0);
    for (const Value& y : values) {
      EXPECT_EQ(x.Compare(y), -y.Compare(x));
      for (const Value& z : values) {
        if (x.Compare(y) < 0 && y.Compare(z) < 0) {
          EXPECT_LT(x.Compare(z), 0);
        }
      }
    }
  }
}

TEST(ValueTest, EqualValuesShareHash) {
  Value v1 = Value::FromBag(MakeBag({{MakeTuple({A("a"), A("b")}), 5}}));
  Value v2 = Value::FromBag(MakeBag({{MakeTuple({A("a"), A("b")}), 5}}));
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1.Hash(), v2.Hash());
}

TEST(ValueTest, RenderingWithMultiplicities) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 3}, {MakeTuple({A("b"), A("a")}), 1}});
  EXPECT_EQ(b.ToString(), "{{[a, b]*3, [b, a]}}");
}

TEST(EncodingTest, StandardSizeWeighsDuplicates) {
  // Standard encoding repeats each object per occurrence (§2).
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 3}});
  // Tuple [a, b] weighs 1 + 1 + 1 = 3; three occurrences -> 9.
  EXPECT_EQ(StandardEncodingSize(b), BigNat(9));
  // Counted representation charges the tuple once plus one limb.
  EXPECT_EQ(CountedEncodingSize(b), 4u);
}

TEST(EncodingTest, StandardSizeNested) {
  Bag inner = MakeBag({{A("a"), 2}});       // size 2
  Bag outer = MakeBag({{Value::FromBag(inner), 3}});  // 3 * (2 + 1)
  EXPECT_EQ(StandardEncodingSize(outer), BigNat(9));
}

TEST(EncodingTest, MaxMultiplicityFindsNestedCounts) {
  Bag inner = MakeBag({{A("a"), 17}});
  Bag outer = MakeBag({{Value::FromBag(inner), 3}});
  EXPECT_EQ(MaxMultiplicity(outer), BigNat(17));
}

TEST(IsoTest, RenamingPreservesStructureAndCounts) {
  AtomId a = GlobalAtom("a"), b = GlobalAtom("b"), c = GlobalAtom("c");
  Isomorphism iso;
  iso.Map(a, b);
  iso.Map(b, c);
  iso.Map(c, a);
  Bag bag = MakeBag({{MakeTuple({A("a"), A("b")}), 2}, {MakeTuple({A("c"), A("c")}), 5}});
  auto renamed = iso.Apply(bag);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed->CountOf(MakeTuple({A("b"), A("c")})), Mult(2));
  EXPECT_EQ(renamed->CountOf(MakeTuple({A("a"), A("a")})), Mult(5));
  // Applying the inverse recovers the original.
  auto back = iso.Inverse().Apply(*renamed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bag);
}

TEST(IsoTest, RandomPermutationIsBijective) {
  Rng rng(42);
  std::vector<AtomId> atoms;
  for (int i = 0; i < 10; ++i) atoms.push_back(GlobalAtom("p" + std::to_string(i)));
  Isomorphism iso = Isomorphism::RandomPermutation(atoms, rng);
  std::set<AtomId> images;
  for (AtomId id : atoms) images.insert(iso.Apply(id));
  EXPECT_EQ(images.size(), atoms.size());
}

TEST(IsoTest, CollectAtomsFindsAllOccurrences) {
  Bag inner = MakeBagOf({A("x1")});
  Bag bag = MakeBag({{MakeTuple({A("x2"), Value::FromBag(inner)}), 2}});
  std::unordered_set<AtomId> atoms;
  CollectAtoms(bag, &atoms);
  EXPECT_EQ(atoms.size(), 2u);
  EXPECT_TRUE(atoms.count(GlobalAtom("x1")));
  EXPECT_TRUE(atoms.count(GlobalAtom("x2")));
}

// ------------------------------------------------------- lazy hash index

/// Reference membership lookup: a linear scan of the canonical entries.
Mult LinearCountOf(const Bag& bag, const Value& v) {
  for (const BagEntry& e : bag.entries()) {
    if (e.value == v) return e.count;
  }
  return Mult();
}

class BagIndexTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BagIndexTest, CountOfAgreesWithLinearScanOnRandomBags) {
  Rng rng(GetParam());
  FlatBagSpec spec;
  spec.arity = 2;
  spec.num_atoms = 24;
  spec.num_elements = 400;  // distinct count well above kIndexThreshold
  spec.max_mult = 7;
  Bag bag = RandomFlatBag(rng, spec);
  ASSERT_GE(bag.DistinctCount(), Bag::kIndexThreshold);

  // Every present value answers its exact multiplicity.
  for (const BagEntry& e : bag.entries()) {
    EXPECT_EQ(bag.CountOf(e.value), e.count);
    EXPECT_TRUE(bag.Contains(e.value));
  }
  // Random probes (present or absent) agree with the linear scan.
  std::vector<Value> pool = AtomPool(spec.num_atoms + 8);
  for (int i = 0; i < 500; ++i) {
    Value probe = MakeTuple({pool[rng.Below(pool.size())],
                             pool[rng.Below(pool.size())]});
    EXPECT_EQ(bag.CountOf(probe), LinearCountOf(bag, probe))
        << probe.ToString();
  }
  // Values of a different shape never match.
  EXPECT_TRUE(bag.CountOf(pool[0]).IsZero());
  EXPECT_TRUE(bag.CountOf(MakeTuple({pool[0]})).IsZero());
}

TEST_P(BagIndexTest, SubBagOfAgreesWithDefinitionOnRandomBags) {
  Rng rng(GetParam() ^ 0x5eed);
  FlatBagSpec spec;
  spec.arity = 2;
  spec.num_atoms = 12;
  spec.num_elements = 300;
  spec.max_mult = 5;
  Bag large = RandomFlatBag(rng, spec);
  ASSERT_GE(large.DistinctCount(), Bag::kIndexThreshold);

  // A genuine subbag drawn from large's entries (indexed probe path).
  Bag::Builder sub_builder;
  for (const BagEntry& e : large.entries()) {
    if (rng.Coin(0.15)) sub_builder.Add(e.value, Mult(1));
  }
  Bag sub = std::move(sub_builder).Build().value();
  EXPECT_TRUE(sub.SubBagOf(large));

  // Bumping one multiplicity past its entry in large breaks the relation.
  if (!sub.empty()) {
    Bag::Builder bump;
    bump.AddBag(sub);
    const Value v = sub.ElementAt(0);
    bump.Add(v, large.CountOf(v));  // now count(v) = large's count + 1
    Bag not_sub = std::move(bump).Build().value();
    EXPECT_FALSE(not_sub.SubBagOf(large));
  }

  // Reference check on random small bags in both directions.
  for (int trial = 0; trial < 20; ++trial) {
    FlatBagSpec small_spec;
    small_spec.arity = 2;
    small_spec.num_atoms = 12;
    small_spec.num_elements = 10;
    small_spec.max_mult = 5;
    Bag small = RandomFlatBag(rng, small_spec);
    bool expected = true;
    for (const BagEntry& e : small.entries()) {
      if (LinearCountOf(large, e.value) < e.count) expected = false;
    }
    EXPECT_EQ(small.SubBagOf(large), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagIndexTest,
                         ::testing::Values(7, 21, 1234, 987654));

TEST(BagIndexTest, SmallBagsAnswerWithoutIndex) {
  // Below the threshold CountOf binary-searches; semantics are identical.
  Bag bag = MakeBag({{A("a"), 3}, {A("b"), 1}});
  EXPECT_LT(bag.DistinctCount(), Bag::kIndexThreshold);
  EXPECT_EQ(bag.CountOf(A("a")), Mult(3));
  EXPECT_EQ(bag.CountOf(A("b")), Mult(1));
  EXPECT_TRUE(bag.CountOf(A("c")).IsZero());
}

// ------------------------------------ Builder vs sort-and-combine reference

/// What Build must return: drop zero counts, std::sort by value, combine
/// equal neighbours and join the element types.
Result<Bag> ReferenceBuild(std::vector<BagEntry> items) {
  std::erase_if(items, [](const BagEntry& e) { return e.count.IsZero(); });
  std::sort(items.begin(), items.end(),
            [](const BagEntry& a, const BagEntry& b) {
              return a.value < b.value;
            });
  Type elem = Type::Bottom();
  std::vector<BagEntry> out;
  for (BagEntry& e : items) {
    BAGALG_ASSIGN_OR_RETURN(elem, Type::Join(elem, e.value.type()));
    if (!out.empty() && out.back().value == e.value) {
      out.back().count += e.count;
    } else {
      out.push_back(std::move(e));
    }
  }
  return Bag::FromCanonicalEntries(std::move(elem), std::move(out));
}

Result<Bag> BuildInOrder(const std::vector<BagEntry>& items) {
  Bag::Builder builder;
  for (const BagEntry& e : items) builder.Add(e.value, e.count);
  return std::move(builder).Build();
}

/// Zero (ignored by Add), past 2^64, or small.
Mult RandomCount(Rng& rng) {
  switch (rng.Below(8)) {
    case 0:
      return Mult(0);
    case 1:
      return BigNat::TwoPow(64) + Mult(rng.Below(1000));
    default:
      return Mult(rng.Range(1, 5));
  }
}

/// `runs` non-decreasing runs of `n` items in total, values drawn from
/// `pool`.
std::vector<BagEntry> SortedRuns(Rng& rng, const std::vector<Value>& pool,
                                 size_t runs, size_t n) {
  std::vector<BagEntry> items;
  for (size_t r = 0; r < runs; ++r) {
    const size_t len = r + 1 < runs ? n / runs : n - items.size();
    std::vector<Value> run;
    for (size_t i = 0; i < len; ++i) {
      run.push_back(pool[rng.Below(pool.size())]);
    }
    std::sort(run.begin(), run.end());
    for (Value& v : run) items.push_back({std::move(v), RandomCount(rng)});
  }
  return items;
}

/// The same sorted stream `copies` times over, like R ⊎ R ⊎ …: every value
/// sits on both sides of every run boundary.
std::vector<BagEntry> RepeatedRun(Rng& rng, const std::vector<Value>& pool,
                                  size_t copies, size_t n) {
  std::vector<BagEntry> run = SortedRuns(rng, pool, 1, n / copies);
  std::vector<BagEntry> items;
  for (size_t c = 0; c < copies; ++c) {
    items.insert(items.end(), run.begin(), run.end());
  }
  return items;
}

/// Flat 2-tuples over 40 atoms: 1600 distinct values, so large inputs
/// repeat values within and across runs.
std::vector<Value> FlatPool() {
  const std::vector<Value> atoms = AtomPool(40, "bld");
  std::vector<Value> pool;
  for (const Value& a : atoms) {
    for (const Value& b : atoms) pool.push_back(Value::Tuple({a, b}));
  }
  return pool;
}

/// [atom, bag] rows whose bags are small random bags over 6 atoms.
std::vector<Value> NestedPool(Rng& rng) {
  const std::vector<Value> atoms = AtomPool(6, "nst");
  std::vector<Value> pool;
  for (size_t i = 0; i < 300; ++i) {
    Bag::Builder inner;
    for (size_t j = rng.Below(4); j > 0; --j) {
      inner.Add(atoms[rng.Below(atoms.size())], Mult(rng.Range(1, 3)));
    }
    pool.push_back(
        Value::Tuple({atoms[i % atoms.size()],
                      Value::FromBag(std::move(inner).Build().value())}));
  }
  return pool;
}

struct BuildCase {
  std::string name;
  std::vector<BagEntry> items;
};

std::vector<BuildCase> BuildCases() {
  Rng rng(16);
  const std::vector<Value> flat = FlatPool();
  const std::vector<Value> nested = NestedPool(rng);
  // Large enough for many merge rounds and a large sort.
  const size_t n = 9000;
  std::vector<BuildCase> cases;
  for (size_t runs : {1, 2, 3, 7, 64}) {
    cases.push_back({"flat_runs_" + std::to_string(runs),
                     SortedRuns(rng, flat, runs, n)});
    cases.push_back({"nested_runs_" + std::to_string(runs),
                     SortedRuns(rng, nested, runs, n)});
  }
  cases.push_back({"repeated_4", RepeatedRun(rng, flat, 4, n)});
  cases.push_back({"repeated_nested_3", RepeatedRun(rng, nested, 3, n)});
  // Runs at the n / 16 bound, and just past it (which sorts instead).
  cases.push_back({"runs_at_bound", SortedRuns(rng, flat, n / 16, n)});
  cases.push_back({"runs_past_bound", SortedRuns(rng, flat, n / 16 + 1, n)});
  std::vector<BagEntry> shuffled = SortedRuns(rng, flat, 1, n);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  cases.push_back({"shuffled", shuffled});
  cases.push_back({"small_runs", SortedRuns(rng, flat, 3, 40)});
  cases.push_back({"tiny_shuffled", SortedRuns(rng, flat, 5, 5)});
  cases.push_back({"empty", {}});
  return cases;
}

TEST(BuilderDifferentialTest, MatchesSortAndCombineAtOneTwoAndEightThreads) {
  // Build runs on one thread (the name keeps the test id stable).
  for (const BuildCase& c : BuildCases()) {
    SCOPED_TRACE(c.name);
    auto want = ReferenceBuild(c.items);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = BuildInOrder(c.items);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->DistinctCount(), want->DistinctCount());
    const std::vector<BagEntry> got_entries = got->entries();
    const std::vector<BagEntry> want_entries = want->entries();
    for (size_t i = 0; i < want->DistinctCount(); ++i) {
      ASSERT_EQ(got_entries[i].value, want_entries[i].value) << i;
      ASSERT_EQ(got_entries[i].count, want_entries[i].count) << i;
    }
    EXPECT_EQ(got->element_type(), want->element_type());
    EXPECT_EQ(got->TotalCount(), want->TotalCount());
    EXPECT_EQ(got->Hash(), want->Hash());
    EXPECT_EQ(*got, *want);
    if (const FlatRows* rows = got->flat_rows()) {
      EXPECT_LE(rows->counts.capacity(), 2 * rows->size());
    } else {
      EXPECT_LE(got->nested_entries().capacity(),
                2 * got->nested_entries().size());
    }
  }
}

TEST(BuilderDifferentialTest, MixedArityRunsAreATypeError) {
  const std::vector<Value> atoms = AtomPool(40, "bld");
  std::vector<Value> unary;
  for (const Value& a : atoms) unary.push_back(Value::Tuple({a}));
  Rng rng(17);
  // A run of 2-tuples then a run of 1-tuples: the boundary is a descent,
  // so 20 items are sorted (two runs exceed 20 / 16) and 9000 are merged.
  for (size_t n : {size_t{20}, size_t{9000}}) {
    std::vector<BagEntry> items = SortedRuns(rng, FlatPool(), 1, n / 2);
    std::vector<BagEntry> tail = SortedRuns(rng, unary, 1, n / 2);
    items.insert(items.end(), tail.begin(), tail.end());
    auto got = BuildInOrder(items);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kTypeError);
  }
}

TEST(BuilderDifferentialTest, DuplicateAdditionsDoNotKeepPreMergeCapacity) {
  // 52,000 additions of 13 values, as when flattening a powerset: the
  // built bag's entry array is sized from the merged count.
  const std::vector<Value> atoms = AtomPool(13, "dup");
  Bag::Builder builder;
  for (size_t i = 0; i < 52000; ++i) builder.AddOne(atoms[i % atoms.size()]);
  auto got = std::move(builder).Build();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->DistinctCount(), 13u);
  ASSERT_NE(got->flat_rows(), nullptr);
  EXPECT_LE(got->flat_rows()->counts.capacity(), 2 * got->DistinctCount());
  EXPECT_EQ(got->TotalCount(), Mult(52000));
  for (const BagEntry& e : got->entries()) EXPECT_EQ(e.count, Mult(4000));
}

}  // namespace
}  // namespace bagalg
