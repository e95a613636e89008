// End-to-end integration: the shipped example script runs through the
// ScriptRunner (parser → typecheck → evaluate pipeline), plus
// multi-line script handling and Database/AtomTable edge cases that the
// pipeline depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/database.h"
#include "src/core/atom.h"
#include "src/lang/script.h"

namespace bagalg {
namespace {

using lang::ScriptRunner;

TEST(IntegrationTest, TourScriptRunsEndToEnd) {
  // tests/CMakeLists.txt passes the source tree in, so the script is found
  // from any build directory; a missing script fails the test.
  std::ifstream file(BAGALG_SOURCE_DIR "/examples/scripts/tour.bag");
  ASSERT_TRUE(file) << "cannot open " BAGALG_SOURCE_DIR
                       "/examples/scripts/tour.bag";
  std::ostringstream script;
  script << file.rdbuf();
  const std::string content = script.str();
  ScriptRunner runner;
  std::ostringstream text;
  Status st = runner.RunScript(content, text);
  ASSERT_TRUE(st.ok()) << st;
  const std::string out = text.str();
  // Spot-check the §4 worked numbers surface in the output.
  EXPECT_NE(out.find("49"), std::string::npos);          // |B×B| = (4+3)^2
  EXPECT_NE(out.find("[a, a]*12"), std::string::npos);   // nm = 12
  EXPECT_NE(out.find("{{[c]}}"), std::string::npos);     // Example 4.1
  EXPECT_NE(out.find("within BALG^1"), std::string::npos);
  EXPECT_NE(out.find("[n1, n4]"), std::string::npos);    // TC reached 4
}

TEST(IntegrationTest, MultiLineCommandsJoinOnBrackets) {
  ScriptRunner runner;
  std::ostringstream out;
  Status st = runner.RunScript(
      "let B = {{[a, b]*2,\n"
      "          [b, a]}}\n"
      "count prod(B,\n"
      "           B)   # comment with ) inside is ignored\n",
      out);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_NE(out.str().find("9"), std::string::npos);
}

TEST(IntegrationTest, UnbalancedScriptReportsStartLine) {
  ScriptRunner runner;
  std::ostringstream out;
  Status st = runner.RunScript("let B = {{a}}\ncount prod(B,\n", out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(IntegrationTest, FailingScriptKeepsTheOutputBeforeTheError) {
  ScriptRunner runner;
  std::ostringstream out;
  Status st = runner.RunScript("let B = {{a}}\neval B\nexec pow(B)\n", out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st;
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st;
  EXPECT_EQ(out.str(), "B : {{U}}\n{{a}}\n");
}

// --------------------------------------------------- database edge cases

TEST(DatabaseTest, DeclareThenPutEnforcesSchema) {
  Database db;
  ASSERT_TRUE(
      db.Declare("R", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
  // Conforming bag: OK.
  EXPECT_TRUE(db.Put("R", MakeBagOf({MakeTuple({MakeAtom("x")})})).ok());
  // Non-conforming bag: rejected.
  auto st = db.Put("R", MakeBagOf({MakeAtom("x")}));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, DeclareRequiresBagType) {
  Database db;
  EXPECT_FALSE(db.Declare("R", Type::Atom()).ok());
  EXPECT_FALSE(db.Declare("R", Type::Tuple({Type::Atom()})).ok());
}

TEST(DatabaseTest, DeclareProvidesTypedEmptyInstance) {
  Database db;
  ASSERT_TRUE(db.Declare("R", Type::Bag(Type::Atom())).ok());
  auto bag = db.Get("R");
  ASSERT_TRUE(bag.ok());
  EXPECT_TRUE(bag->empty());
  EXPECT_EQ(bag->element_type(), Type::Atom());
  EXPECT_EQ(db.TypeOfInput("R").value(), Type::Bag(Type::Atom()));
  EXPECT_FALSE(db.Get("Missing").ok());
  EXPECT_FALSE(db.TypeOfInput("Missing").ok());
}

TEST(DatabaseTest, PutInfersSchemaFromBag) {
  Database db;
  Bag b = MakeBag({{MakeTuple({MakeAtom("x"), MakeAtom("y")}), 2}});
  ASSERT_TRUE(db.Put("S", b).ok());
  EXPECT_EQ(db.TypeOfInput("S").value(), b.type());
}

// --------------------------------------------------- atom table edge cases

TEST(AtomTableTest, InternIsIdempotentAndDense) {
  AtomTable table;
  AtomId a = table.Intern("alpha");
  AtomId b = table.Intern("beta");
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.NameOf(a), "alpha");
  EXPECT_EQ(table.Find("beta").value(), b);
  EXPECT_FALSE(table.Find("gamma").has_value());
}

TEST(AtomTableTest, UnknownIdsPrintPlaceholders) {
  AtomTable table;
  EXPECT_EQ(table.NameOf(12345), "#12345");
}

TEST(AtomTableTest, SeparateTablesAreIndependent) {
  AtomTable t1, t2;
  AtomId a1 = t1.Intern("x");
  AtomId b2 = t2.Intern("completely-different");
  // Dense ids start at 0 in each table.
  EXPECT_EQ(a1, b2);
  EXPECT_EQ(t1.NameOf(a1), "x");
  EXPECT_EQ(t2.NameOf(b2), "completely-different");
}

// Segment k starts at id 64·(2^k − 1). A view taken before later segments
// exist must still hold its name afterwards: segments never move.
TEST(AtomTableTest, NamesStayPutAcrossSegmentBoundaries) {
  AtomTable table;
  std::vector<std::string_view> views;
  for (size_t i = 0; i < 16384; ++i) {
    const std::string name = "seg" + std::to_string(i);
    ASSERT_EQ(table.Intern(name), i);
    views.push_back(*table.NameView(static_cast<AtomId>(i)));
  }
  for (size_t k = 1; k <= 8; ++k) {
    const size_t boundary = 64 * ((size_t{1} << k) - 1);
    for (const size_t id : {boundary - 1, boundary}) {
      const std::string name = "seg" + std::to_string(id);
      EXPECT_EQ(table.NameView(static_cast<AtomId>(id)), name) << id;
      EXPECT_EQ(table.NameView(static_cast<AtomId>(id))->data(),
                views[id].data())
          << id;
      EXPECT_EQ(views[id], name) << id;
      EXPECT_EQ(table.Find(name), id) << id;
    }
  }
  EXPECT_FALSE(table.NameView(16384).has_value());
  EXPECT_EQ(table.NameOf(16384), "#16384");
}

// Four writers intern overlapping ranges of names while four readers read
// the name of every id below size(). Ids come out dense, every name reads
// back whole, and Find agrees with what Intern returned.
TEST(AtomTableTest, ConcurrentInternAndReadAgree) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  constexpr size_t kPerWriter = 50000;
  constexpr size_t kStride = 25000;  // writer w covers [w·kStride, +kPerWriter)
  constexpr size_t kDistinct = (kWriters - 1) * kStride + kPerWriter;
  AtomTable table;
  std::vector<std::vector<AtomId>> ids(kWriters);
  std::atomic<size_t> writers_left{kWriters};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        ids[w].push_back(
            table.Intern("name" + std::to_string(w * kStride + i)));
      }
      writers_left.fetch_sub(1);
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      size_t checked = 0;
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writers_left.load() == 0;
        const size_t size = table.size();
        for (; checked < size; ++checked) {
          const auto id = static_cast<AtomId>(checked);
          const auto name = table.NameView(id);
          if (!name.has_value() || name->substr(0, 4) != "name") {
            bad_reads.fetch_add(1);
            continue;
          }
          // The index slot is filled just after the count is published,
          // so Find may miss a name for the moment its intern finishes.
          std::optional<AtomId> found = table.Find(*name);
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!found.has_value() &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
            found = table.Find(*name);
          }
          if (found != id) bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  ASSERT_EQ(table.size(), kDistinct);
  std::vector<bool> seen(kDistinct, false);
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_EQ(ids[w].size(), kPerWriter);
    for (size_t i = 0; i < kPerWriter; ++i) {
      const std::string name = "name" + std::to_string(w * kStride + i);
      const AtomId id = ids[w][i];
      ASSERT_LT(id, kDistinct) << name;
      seen[id] = true;
      EXPECT_EQ(table.NameOf(id), name);
      EXPECT_EQ(table.Find(name), id) << name;
    }
  }
  for (size_t id = 0; id < kDistinct; ++id) EXPECT_TRUE(seen[id]) << id;
}

}  // namespace
}  // namespace bagalg
