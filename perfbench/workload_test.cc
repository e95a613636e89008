// Tests for the benchmark's statement generator and oracle:
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <string>

#include "perfbench/workload.h"
#include "src/algebra/eval.h"
#include "src/algebra/typecheck.h"
#include "src/exec/compile.h"
#include "src/lang/parser.h"

namespace perfbench {
namespace {

constexpr int kStream = 3000;

/// The stream as bytes: everything a run sends, in order.
std::string StreamBytes(const std::string& name, uint64_t seed, int n) {
  auto w = Workload::Create(name, seed);
  EXPECT_TRUE(w.ok());
  std::string out;
  for (uint32_t s = 0; s < w->spec().sessions; ++s) {
    for (const std::string& line : w->SetupStatements(s)) out += line + "\n";
  }
  for (int i = 0; i < n; ++i) {
    const Statement st = w->Next();
    out += w->SessionName(st.session) + (st.bag1 ? " bag1 " : " json ") + st.text + "\n";
  }
  return out;
}

TEST(WorkloadTest, SameSeedGivesByteIdenticalStream) {
  for (const std::string& name : WorkloadNames()) {
    const std::string a = StreamBytes(name, 7, kStream);
    EXPECT_EQ(a, StreamBytes(name, 7, kStream)) << name;
    EXPECT_NE(a, StreamBytes(name, 8, kStream)) << name;
  }
}

TEST(WorkloadTest, UnknownWorkloadIsRejected) {
  EXPECT_FALSE(Workload::Create("no_such_workload", 1).ok());
}

TEST(WorkloadTest, EveryStatementParsesAndTypechecks) {
  for (const std::string& name : WorkloadNames()) {
    auto w = Workload::Create(name, 11);
    ASSERT_TRUE(w.ok());
    // Each session's schema, from its setup literals.
    std::vector<bagalg::Database> dbs;
    for (uint32_t s = 0; s < w->spec().sessions; ++s) {
      bagalg::Database db;
      for (const Slot& slot : w->Slots(w->UniverseOf(s))) {
        for (const std::string& literal : slot.variants) {
          auto v = bagalg::lang::ParseValue(literal);
          ASSERT_TRUE(v.ok()) << name << " " << slot.name;
          ASSERT_TRUE(v->IsBag());
          ASSERT_TRUE(db.Put(slot.name, v->bag()).ok());
        }
      }
      dbs.push_back(std::move(db));
    }
    for (int i = 0; i < kStream; ++i) {
      const Statement st = w->Next();
      const bagalg::Schema& schema = dbs[st.session].schema();
      if (st.write) {
        ASSERT_EQ(st.text.rfind("let " + st.query + " = ", 0), 0u) << st.text;
        auto v = bagalg::lang::ParseValue(st.text.substr(st.text.find('=') + 1));
        ASSERT_TRUE(v.ok()) << st.text.substr(0, 80);
        ASSERT_TRUE(v->IsBag());
        EXPECT_EQ(v->type(), schema.at(st.query)) << name;
        continue;
      }
      const std::string command = st.text.substr(0, st.text.find(' '));
      EXPECT_TRUE(command == "eval" || command == "count" || command == "exec")
          << st.text;
      EXPECT_EQ(st.text, command + " " + st.query);
      auto e = bagalg::lang::ParseExpr(st.query);
      ASSERT_TRUE(e.ok()) << st.query;
      EXPECT_TRUE(bagalg::AnalyzeExpr(*e, schema).ok()) << st.query;
    }
  }
}

TEST(WorkloadTest, SharesMatchTheSpec) {
  for (const std::string& name : WorkloadNames()) {
    auto w = Workload::Create(name, 3);
    ASSERT_TRUE(w.ok());
    const int n = 20000;
    int writes = 0, bag1 = 0;
    for (int i = 0; i < n; ++i) {
      const Statement st = w->Next();
      writes += st.write ? 1 : 0;
      bag1 += st.bag1 ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, w->spec().write_share, 0.015) << name;
    EXPECT_NEAR(static_cast<double>(bag1) / n, w->spec().bag1_share, 0.015) << name;
  }
}

TEST(WorkloadTest, ExecHeavyEvalShareAndResultSizes) {
  auto w = Workload::Create("exec_heavy", 5);
  ASSERT_TRUE(w.ok());
  Oracle oracle(*w);
  int reads = 0, evals = 0;
  for (int i = 0; i < 400; ++i) {
    const Statement st = w->Next();
    if (st.write) continue;
    ++reads;
    evals += st.text.rfind("eval ", 0) == 0 ? 1 : 0;
    // Joins are exec only: the tree walker would build the full product.
    if (st.join) {
      EXPECT_EQ(st.text.rfind("exec ", 0), 0u) << st.text;
    }
    auto expected = oracle.Expected(st);
    ASSERT_TRUE(expected.ok()) << st.text;
    EXPECT_LE(expected->bag().DistinctCount(), 200u) << st.text;
  }
  EXPECT_NEAR(static_cast<double>(evals) / reads, 0.25, 0.08);
}

TEST(WorkloadTest, JoinOracleAgreesWithTheIrEngine) {
  auto w = Workload::Create("exec_heavy", 9);
  ASSERT_TRUE(w.ok());
  Oracle oracle(*w);
  bagalg::Database db;
  for (const Slot& slot : w->Slots(0)) {
    auto v = bagalg::lang::ParseValue(slot.variants[0]);
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(db.Put(slot.name, v->bag()).ok());
  }
  int joins = 0;
  for (int i = 0; i < 200 && joins < 6; ++i) {
    const Statement st = w->Next();
    // Only statements that see variant 0 of every slot match `db`.
    bool initial = true;
    for (const auto& [slot, variant] : st.versions) initial = initial && variant == 0;
    if (st.write || !st.join || !initial) continue;
    ++joins;
    auto expr = bagalg::lang::ParseExpr(st.query);
    ASSERT_TRUE(expr.ok());
    auto ir = bagalg::exec::RunPipeline(*expr, db);
    ASSERT_TRUE(ir.ok()) << st.query;
    auto expected = oracle.Expected(st);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(expected->bag(), *ir) << st.query;
  }
  EXPECT_GT(joins, 0);
}

TEST(WorkloadTest, OracleMatchesPlainEvaluationOnSmallData) {
  auto w = Workload::Create("serve_small", 4);
  ASSERT_TRUE(w.ok());
  Oracle oracle(*w);
  for (int i = 0; i < 300; ++i) {
    const Statement st = w->Next();
    if (st.write) continue;
    bagalg::Database db;
    for (const auto& [slot, variant] : st.versions) {
      const Slot& s = w->Slots(w->UniverseOf(st.session))[slot];
      auto v = bagalg::lang::ParseValue(s.variants[variant]);
      ASSERT_TRUE(v.ok());
      ASSERT_TRUE(db.Put(s.name, v->bag()).ok());
    }
    auto expr = bagalg::lang::ParseExpr(st.query);
    ASSERT_TRUE(expr.ok());
    bagalg::Evaluator evaluator;
    auto direct = evaluator.EvalToBag(*expr, db);
    ASSERT_TRUE(direct.ok()) << st.query;
    auto expected = oracle.Expected(st);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(expected->bag(), *direct) << st.query;
  }
}

}  // namespace
}  // namespace perfbench
