// Differential corpus for the two engines: every query family the
// exec/eval tests exercise runs through the tree-walking evaluator (the
// reference) and the fused IR (exec::RunPipeline), and the two must
// produce bit-identical canonical bags — including the abort paths
// (governor deadline/memcap trips and injected checkpoint/alloc faults),
// where the engines must agree on the *typed error* and unwind cleanly
// enough to rerun identically afterwards.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/exec/compile.h"
#include "src/ir/lower.h"
#include "src/obs/metrics.h"
#include "src/stats/expr_gen.h"
#include "src/stats/sampler.h"
#include "src/util/fault.h"
#include "src/util/governor.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

using exec::RunPipeline;

/// The two engines that run BALG¹ plans.
enum class Engine { kEvaluator, kIr };

const char* EngineName(Engine engine) {
  return engine == Engine::kEvaluator ? "eval" : "ir";
}

/// Runs `q` on `engine` under `gov` (nullptr: ungoverned).
Result<Bag> RunOn(Engine engine, const Expr& q, const Database& db,
                  ResourceGovernor* gov) {
  if (engine == Engine::kEvaluator) {
    Evaluator eval;
    eval.set_governor(gov);
    return eval.EvalToBag(q, db);
  }
  exec::ExecOptions options;
  options.governor = gov;
  return RunPipeline(q, db, options);
}

Value A(const char* name) { return MakeAtom(name); }

/// Disarms fault injection on scope exit so a failing assertion cannot
/// poison later tests.
struct FaultDisarmer {
  ~FaultDisarmer() { fault::Disarm(); }
};

/// n distinct 2-tuples [kI, vJ] with small duplicate groups in column 2 —
/// big enough (>512) that every engine crosses checkpoint strides.
Bag Pairs(size_t n) {
  Bag::Builder builder;
  builder.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    builder.AddOne(MakeTuple({MakeAtom("k" + std::to_string(i)),
                              MakeAtom("v" + std::to_string(i % 5))}));
  }
  auto bag = std::move(builder).Build();
  EXPECT_TRUE(bag.ok());
  return *bag;
}

Database CorpusDb() {
  Database db;
  EXPECT_TRUE(db.Put("R", Pairs(700)).ok());
  EXPECT_TRUE(db.Put("R2", Pairs(300)).ok());
  EXPECT_TRUE(
      db.Put("S", MakeBag({{MakeTuple({A("x")}), 5},
                           {MakeTuple({A("y")}), 2},
                           {MakeTuple({A("z")}), 1}}))
          .ok());
  return db;
}

/// Every operator family the exec/eval tests cover, in pipeline
/// combinations: scans, all four unions/merges, ε, fused map/σ chains,
/// cross and equi joins, and shared subplans for the CSE path.
std::vector<Expr> Corpus() {
  // Equi-join of the two pair bags on their duplicate-heavy v columns
  // (probe column 2 against build column 2, i.e. joined column 4).
  Expr join = ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                                  Product(Input("R"), Input("R2"))),
                           {1, 3});
  return {
      Input("R"),
      Uplus(Input("R"), Input("R2")),
      Monus(Input("R"), Input("R2")),
      Umax(Input("R"), Input("R2")),
      Inter(Input("R"), Input("R2")),
      Eps(ProjectAttrs(Input("R"), {2})),
      Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R")),
      Select(Proj(Var(0), 2), Proj(Var(0), 2), Input("R")),
      ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                          Product(Input("R"), Input("S"))),
                   {1, 3}),
      join,
      Product(Input("S"), Input("S")),
      Uplus(Eps(Input("R")), Eps(Input("R"))),
      Monus(Uplus(Input("R"), Input("R")), Input("R")),
      Map(Tup({Proj(Var(0), 1)}),
          Select(Proj(Var(0), 2), Proj(Var(0), 2),
                 Uplus(Input("R"), Input("R2")))),
  };
}

/// Evaluator vs IR on one query; the two must agree bit for bit
/// (canonical Bag equality is structural).
void ExpectEnginesAgree(const Expr& q, const Database& db) {
  Evaluator eval;
  auto reference = eval.EvalToBag(q, db);
  ASSERT_TRUE(reference.ok()) << q.ToString() << "\n" << reference.status();
  auto fused = RunPipeline(q, db);
  ASSERT_TRUE(fused.ok()) << q.ToString() << "\n" << fused.status();
  EXPECT_EQ(*fused, *reference) << q.ToString();
}

TEST(IrDiffTest, CorpusAgreesAcrossEnginesAndThreadCounts) {
  // One run per query (the name keeps the test id stable).
  Database db = CorpusDb();
  for (const Expr& q : Corpus()) {
    ExpectEnginesAgree(q, db);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------------------------------- random queries

class IrDiffFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// The exec_test fuzz harness at other seeds: every generated
/// BALG¹ query must lower and agree with the evaluator exactly.
TEST_P(IrDiffFuzzTest, StrictIrAgreesWithEvaluatorOnBalg1) {
  Rng rng(GetParam());
  Type tup1 = Type::Tuple({Type::Atom()});
  Type tup2 = Type::Tuple({Type::Atom(), Type::Atom()});
  Schema schema{{"R", Type::Bag(tup1)}, {"S", Type::Bag(tup2)}};
  ExprGenOptions options;
  options.max_bag_nesting = 1;  // the BALG¹ pipeline fragment
  options.allow_powerset = false;
  options.growth_rounds = 14;
  Evaluator eval;
  int lowered = 0;
  for (int i = 0; i < 60; ++i) {
    auto e = RandomExpr(rng, schema, options);
    ASSERT_TRUE(e.ok());
    FlatBagSpec spec1;
    spec1.arity = 1;
    spec1.num_elements = 4;
    FlatBagSpec spec2 = spec1;
    spec2.arity = 2;
    Database db;
    ASSERT_TRUE(db.Put("R", RandomFlatBag(rng, spec1)).ok());
    ASSERT_TRUE(db.Put("S", RandomFlatBag(rng, spec2)).ok());
    auto reference = eval.EvalToBag(*e, db);
    ASSERT_TRUE(reference.ok()) << e->ToString();
    auto fused = RunPipeline(*e, db);
    ASSERT_TRUE(fused.ok()) << e->ToString() << "\n" << fused.status();
    ++lowered;
    EXPECT_EQ(*fused, *reference) << e->ToString();
  }
  EXPECT_EQ(lowered, 60);  // the whole generated fragment must lower
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrDiffFuzzTest,
                         ::testing::Values(91, 92, 93, 94));

// ---------------------------------------------------------- abort paths

/// Both engines must turn an already-expired deadline into the same typed
/// error, and leave the governor's trip kind telling the same story.
TEST(IrDiffAbortTest, DeadlineTripsWithTheSameCodeOnBothEngines) {
  Database db = CorpusDb();
  Expr q = Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R"));
  for (Engine engine : {Engine::kEvaluator, Engine::kIr}) {
    GovernorOptions gopts;
    gopts.wall_limit_ns = 1;
    ResourceGovernor gov{gopts};
    auto out = RunOn(engine, q, db, &gov);
    ASSERT_FALSE(out.ok()) << EngineName(engine);
    EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded)
        << EngineName(engine) << ": " << out.status();
    EXPECT_EQ(gov.trip_kind(), TripKind::kDeadline);
  }
}

TEST(IrDiffAbortTest, MemcapTripsWithTheSameCodeOnBothEngines) {
  Database db = CorpusDb();
  // The cross product materializes far beyond a 4 KiB accounting cap.
  Expr q = Product(Input("R"), Input("R2"));
  for (Engine engine : {Engine::kEvaluator, Engine::kIr}) {
    GovernorOptions gopts;
    gopts.memory_limit_bytes = 4096;
    ResourceGovernor gov{gopts};
    auto out = RunOn(engine, q, db, &gov);
    ASSERT_FALSE(out.ok()) << EngineName(engine);
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
        << EngineName(engine) << ": " << out.status();
    EXPECT_EQ(gov.trip_kind(), TripKind::kMemcap);
  }
}

/// The BAGALG_FAULT sweep of governor_test.cc, per engine: a one-shot
/// checkpoint fault armed at event N either lets the query finish or
/// aborts it with the typed injection error; after disarming, the same
/// query must rerun to the exact reference result. Sweeping N visits abort
/// sites at different pipeline depths (scan, staged loops, join
/// build/probe, merge kernels).
void RunEngineFaultSweep(Engine engine, fault::FaultPoint point,
                         StatusCode expected_code) {
  FaultDisarmer disarm;
  Database db = CorpusDb();
  const Expr queries[] = {
      Map(Tup({Proj(Var(0), 2)}), Input("R")),
      ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                          Product(Input("R2"), Input("R2"))),
                   {1, 3}),
      Monus(Uplus(Input("R"), Input("R")), Input("R2")),
      Eps(ProjectAttrs(Input("R"), {2})),
  };
  Evaluator eval;
  const uint64_t sweep[] = {0, 1, 2, 3, 5, 8, 13, 33, 150, 5000};
  for (uint64_t after : sweep) {
    for (const Expr& q : queries) {
      auto reference = eval.EvalToBag(q, db);
      ASSERT_TRUE(reference.ok());
      fault::FaultSpec spec;
      spec.point = point;
      spec.after = after;
      fault::Configure(spec);
      {
        ResourceGovernor gov{GovernorOptions{}};
        auto out = RunOn(engine, q, db, &gov);
        if (!out.ok()) {
          EXPECT_EQ(out.status().code(), expected_code)
              << "engine=" << EngineName(engine) << " after=" << after
              << " q=" << q.ToString() << ": " << out.status();
          EXPECT_NE(out.status().message().find("fault injection"),
                    std::string::npos)
              << out.status();
        } else {
          EXPECT_EQ(*out, *reference) << q.ToString();
        }
      }
      // Clean unwind: disarmed, the identical query must succeed exactly.
      fault::Disarm();
      ResourceGovernor gov{GovernorOptions{}};
      auto again = RunOn(engine, q, db, &gov);
      ASSERT_TRUE(again.ok())
          << "engine=" << EngineName(engine) << " after=" << after
          << ": " << again.status();
      EXPECT_EQ(*again, *reference) << q.ToString();
    }
  }
}

// ------------------------------------------------ scan facts cached per bag

uint64_t ColumnFactsBuilds() {
  return obs::GlobalMetrics().GetCounter("kernel.column_facts_builds")->value();
}

TEST(ScanFactsTest, FactsAreIdenticalOnFreshAndProfiledBags) {
  // Profile one database's bags by lowering the whole corpus over it.
  Database profiled = CorpusDb();
  for (const Expr& q : Corpus()) ASSERT_TRUE(ir::LowerToIr(q, profiled).ok());
  for (const Expr& q : Corpus()) {
    // A fresh database has new bags, so its facts are built here.
    auto fresh = ir::ExplainIrFacts(q, CorpusDb());
    ASSERT_TRUE(fresh.ok()) << q.ToString() << "\n" << fresh.status();
    auto cached = ir::ExplainIrFacts(q, profiled);
    ASSERT_TRUE(cached.ok()) << q.ToString() << "\n" << cached.status();
    EXPECT_EQ(*cached, *fresh) << q.ToString();
  }
}

TEST(ScanFactsTest, LoweringTwiceBuildsColumnFactsOnce) {
  Database db;
  ASSERT_TRUE(db.Put("R", Pairs(700)).ok());
  const Expr q = Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R"));
  const uint64_t before = ColumnFactsBuilds();
  ASSERT_TRUE(ir::LowerToIr(q, db).ok());
  EXPECT_EQ(ColumnFactsBuilds(), before + 1);
  ASSERT_TRUE(ir::LowerToIr(q, db).ok());
  // A second database holding the same bag shares its facts too.
  Database copy;
  ASSERT_TRUE(copy.Put("R", *db.Get("R")).ok());
  ASSERT_TRUE(ir::LowerToIr(q, copy).ok());
  EXPECT_EQ(ColumnFactsBuilds(), before + 1);
}

TEST(ScanFactsTest, ConcurrentLoweringsOverOneBagAgree) {
  const Database db = CorpusDb();
  const Expr q = Corpus()[1];  // uplus(R, R2): two scans
  const uint64_t before = ColumnFactsBuilds();
  std::vector<std::string> facts(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < facts.size(); ++t) {
    threads.emplace_back([&, t] {
      auto plan = ir::ExplainIrFacts(q, db);
      facts[t] = plan.ok() ? *plan : plan.status().ToString();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : facts) EXPECT_EQ(f, facts[0]);
  EXPECT_NE(facts[0].find("key{"), std::string::npos) << facts[0];
  // One build per scanned bag, however many threads raced for it.
  EXPECT_EQ(ColumnFactsBuilds(), before + 2);
}

TEST(IrDiffAbortTest, CheckpointFaultSweepEvaluator) {
  RunEngineFaultSweep(Engine::kEvaluator, fault::FaultPoint::kCheckpoint,
                      StatusCode::kCancelled);
}

TEST(IrDiffAbortTest, CheckpointFaultSweepIr) {
  RunEngineFaultSweep(Engine::kIr, fault::FaultPoint::kCheckpoint,
                      StatusCode::kCancelled);
}

TEST(IrDiffAbortTest, AllocFaultSweepEvaluator) {
  RunEngineFaultSweep(Engine::kEvaluator, fault::FaultPoint::kAlloc,
                      StatusCode::kResourceExhausted);
}

TEST(IrDiffAbortTest, AllocFaultSweepIr) {
  RunEngineFaultSweep(Engine::kIr, fault::FaultPoint::kAlloc,
                      StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace bagalg
