// Tests for the bagalg::obs subsystem: span nesting and the disabled
// no-op path, metrics snapshot/merge, exporter output shape (validated
// with a small JSON syntax checker), the evaluator/exec wiring, and the
// new REPL observability commands.

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/algebra/explain.h"
#include "src/ir/run.h"
#include "src/lang/script.h"
#include "src/obs/json.h"

namespace bagalg {
namespace {

// ----------------------------------------------------- minimal JSON check

/// A tiny recursive-descent JSON validator — enough to assert the
/// exporters emit syntactically well-formed documents (balanced
/// structure, quoted keys, no trailing commas).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson(R"({"a":[1,2.5,"x\"y"],"b":{},"c":null})"));
  EXPECT_FALSE(IsValidJson(R"({"a":1,})"));
  EXPECT_FALSE(IsValidJson(R"({"a")"));
  EXPECT_FALSE(IsValidJson("{'a':1}"));
}

TEST(JsonTest, EscapesControlCharacters) {
  EXPECT_EQ(obs::JsonQuote("a\"b\\c\n\t"), "\"a\\\"b\\\\c\\n\\t\"");
  std::string out;
  obs::AppendJsonEscaped(&out, std::string_view("\x01", 1));
  EXPECT_EQ(out, "\\u0001");
}

// ----------------------------------------------------------------- spans

TEST(TracerTest, RecordsNestedSpans) {
  obs::Tracer tracer;
  {
    obs::Span outer = tracer.StartSpan("outer", "test");
    outer.AddAttr("size", uint64_t{42});
    {
      obs::Span inner = tracer.StartSpan("inner", "test");
      inner.AddAttr("note", std::string_view("child"));
    }
  }
  auto events = tracer.TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on End, so the inner span lands first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 0u);
  // Child interval contained in the parent's.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].wall_ns,
            events[1].start_ns + events[1].wall_ns);
  ASSERT_EQ(events[1].attrs.size(), 1u);
  EXPECT_EQ(events[1].attrs[0].first, "size");
}

TEST(TracerTest, DisabledTracerIsNoOp) {
  obs::Tracer tracer(/*enabled=*/false);
  obs::Span span = tracer.StartSpan("ignored");
  EXPECT_FALSE(span.active());
  span.AddAttr("x", uint64_t{1});
  span.End();
  EXPECT_EQ(tracer.event_count(), 0u);

  obs::Span defaulted;  // never attached to any tracer
  defaulted.AddAttr("y", int64_t{-1});
  defaulted.End();
}

TEST(TracerTest, MoveTransfersOwnership) {
  obs::Tracer tracer;
  {
    obs::Span a = tracer.StartSpan("moved");
    obs::Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  EXPECT_EQ(tracer.event_count(), 1u);  // recorded exactly once
}

TEST(TracerTest, MaxEventsCapDrops) {
  obs::Tracer tracer;
  tracer.set_max_events(2);
  for (int i = 0; i < 5; ++i) tracer.StartSpan("s");
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped_count(), 3u);
  tracer.Clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_count(), 0u);
}

TEST(TracerTest, ChromeExportIsValidJson) {
  obs::Tracer tracer;
  {
    obs::Span s = tracer.StartSpan("parent", "eval");
    s.AddAttr("distinct", uint64_t{7});
    s.AddAttr("selectivity", 0.25);
    s.AddAttr("label", std::string_view("needs \"escaping\"\n"));
    obs::Span child = tracer.StartSpan("child", "exec");
  }
  std::ostringstream os;
  obs::WriteChromeTrace(tracer.SnapshotEvents(), os);
  std::string json = os.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parent\""), std::string::npos);
  EXPECT_NE(json.find("\"distinct\":7"), std::string::npos);
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("queries");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(registry.GetCounter("queries"), c);  // stable pointer
  registry.GetGauge("bytes")->Set(-12);
  obs::Histogram* h = registry.GetHistogram("rows");
  h->Observe(0);
  h->Observe(3);
  h->Observe(100);

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("queries"), 5u);
  EXPECT_EQ(snap.gauges.at("bytes"), -12);
  const obs::HistogramSnapshot& hs = snap.histograms.at("rows");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_EQ(hs.sum, 103u);
  EXPECT_EQ(hs.max, 100u);
  ASSERT_FALSE(hs.buckets.empty());
  EXPECT_EQ(hs.buckets[0], 1u);  // the zero observation
}

TEST(MetricsTest, SnapshotMergeAdds) {
  obs::MetricsRegistry a, b;
  a.GetCounter("x")->Increment(2);
  b.GetCounter("x")->Increment(3);
  b.GetCounter("y")->Increment(1);
  a.GetHistogram("h")->Observe(8);
  b.GetHistogram("h")->Observe(1024);

  obs::MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("x"), 5u);
  EXPECT_EQ(merged.counters.at("y"), 1u);
  EXPECT_EQ(merged.histograms.at("h").count, 2u);
  EXPECT_EQ(merged.histograms.at("h").sum, 1032u);
  EXPECT_EQ(merged.histograms.at("h").max, 1024u);
}

TEST(MetricsTest, JsonExportShape) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.b")->Increment();
  registry.GetGauge("g")->Set(7);
  registry.GetHistogram("h")->Observe(5);
  std::string json = registry.Snapshot().ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.b\":1"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsTest, ResetZeroes) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Increment(9);
  registry.GetHistogram("h")->Observe(9);
  registry.Reset();
  EXPECT_EQ(registry.Snapshot().counters.at("c"), 0u);
  EXPECT_EQ(registry.Snapshot().histograms.at("h").count, 0u);
}

// ------------------------------------------------------------- EvalStats

TEST(EvalStatsTest, ResetAndMerge) {
  EvalStats a;
  a.steps = 10;
  a.op_counts[static_cast<size_t>(ExprKind::kMap)] = 4;
  a.max_distinct = 100;
  a.fixpoint_iterations = 2;
  EvalStats b;
  b.steps = 5;
  b.op_counts[static_cast<size_t>(ExprKind::kMap)] = 1;
  b.max_distinct = 7;
  b.max_mult_bits = 99;
  a.Merge(b);
  EXPECT_EQ(a.steps, 15u);
  EXPECT_EQ(a.CountOf(ExprKind::kMap), 5u);
  EXPECT_EQ(a.max_distinct, 100u);
  EXPECT_EQ(a.max_mult_bits, 99u);
  EXPECT_EQ(a.fixpoint_iterations, 2u);
  a.Reset();
  EXPECT_EQ(a.steps, 0u);
  EXPECT_EQ(a.CountOf(ExprKind::kMap), 0u);
}

// --------------------------------------------------- evaluator integration

Database JoinDb() {
  Bag r = MakeBag({{MakeTuple({MakeAtom("a"), MakeAtom("b")}), 2},
                   {MakeTuple({MakeAtom("b"), MakeAtom("c")}), 1}});
  Database db;
  EXPECT_TRUE(db.Put("R", r).ok());
  EXPECT_TRUE(db.Put("S", r).ok());
  return db;
}

Expr JoinQuery() {
  // π_{1,4}(σ_{2=3}(R × S)) — a join + selection.
  return ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                             Product(Input("R"), Input("S"))),
                      {1, 4});
}

TEST(EvalTracingTest, EmitsNestedEvaluatorSpans) {
  obs::Tracer tracer;
  Evaluator eval;
  eval.set_tracer(&tracer);
  Database db = JoinDb();
  auto r = eval.EvalToBag(JoinQuery(), db);
  ASSERT_TRUE(r.ok()) << r.status();
  auto events = tracer.SnapshotEvents();
  ASSERT_FALSE(events.empty());
  bool saw_input = false, saw_select = false, saw_nested = false;
  std::set<uint64_t> ids;
  for (const auto& e : events) {
    // Kernel-layer spans ride along in the same trace now that KernelScope
    // picks up the ambient tracer; everything else here is evaluator spans.
    EXPECT_TRUE(e.category == "eval" || e.category == "kernel")
        << e.category;
    ids.insert(e.id);
    if (e.name == "input") saw_input = true;
    if (e.name == "sel") saw_select = true;
    if (e.depth > 0) saw_nested = true;
  }
  EXPECT_TRUE(saw_input);
  EXPECT_TRUE(saw_select);
  EXPECT_TRUE(saw_nested);
  // Kernel spans triggered by the evaluation are children of recorded eval
  // (or kernel) spans, never orphaned roots.
  for (const auto& e : events) {
    if (e.category != "kernel") continue;
    EXPECT_NE(e.parent_id, 0u) << e.name;
    EXPECT_TRUE(ids.count(e.parent_id) == 1) << e.name;
  }
}

TEST(EvalTracingTest, FixpointIterationsBecomeChildSpans) {
  obs::Tracer tracer;
  Evaluator eval;
  eval.set_tracer(&tracer);
  Bag edges = MakeBagOf({MakeTuple({MakeAtom("x"), MakeAtom("y")}),
                         MakeTuple({MakeAtom("y"), MakeAtom("z")})});
  Database db;
  ASSERT_TRUE(db.Put("G", edges).ok());
  Expr tc = TransitiveClosure(Input("G"));
  auto r = eval.EvalToBag(tc, db);
  ASSERT_TRUE(r.ok()) << r.status();
  size_t iteration_spans = 0;
  for (const auto& e : tracer.SnapshotEvents()) {
    if (e.name == "ifp.iteration") ++iteration_spans;
  }
  EXPECT_EQ(iteration_spans, eval.stats().fixpoint_iterations);
}

/// R with n distinct unary tuples [r0] .. [r<n-1>], each once.
Database UnaryDb(size_t n) {
  Bag::Builder builder;
  for (size_t i = 0; i < n; ++i) {
    builder.AddOne(MakeTuple({MakeAtom("r" + std::to_string(i))}));
  }
  auto bag = std::move(builder).Build();
  EXPECT_TRUE(bag.ok());
  Database db;
  EXPECT_TRUE(db.Put("R", *bag).ok());
  return db;
}

Expr UnaryMap() { return Map(Tup({Proj(Var(0), 1)}), Input("R")); }

TEST(EvalTracingTest, LambdaBodiesOpenNoSpanPerEntry) {
  // The map body runs once per entry of R; its span count must not.
  auto eval_spans = [](size_t n) {
    obs::Tracer tracer;
    Evaluator eval;
    eval.set_tracer(&tracer);
    Database db = UnaryDb(n);
    auto r = eval.EvalToBag(UnaryMap(), db);
    EXPECT_TRUE(r.ok()) << r.status();
    if (r.ok()) {
      EXPECT_EQ(r->DistinctCount(), n);
    }
    size_t spans = 0;
    for (const auto& e : tracer.SnapshotEvents()) {
      if (e.category == "eval") ++spans;
    }
    return spans;
  };
  const size_t small = eval_spans(4);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(eval_spans(400), small);
}

TEST(EvalTracingTest, NullTracerKeepsEvaluatorClean) {
  Evaluator eval;
  Database db = JoinDb();
  auto r = eval.EvalToBag(JoinQuery(), db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(eval.tracer(), nullptr);
  EXPECT_TRUE(eval.node_profiles().empty());
}

// ------------------------------------------------------- explain analyze

TEST(ExplainAnalyzeTest, AnnotatesJoinSelectionPlan) {
  Evaluator eval;
  Database db = JoinDb();
  auto plan = ExplainAnalyzeExpr(JoinQuery(), db, eval);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("calls="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("time="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("rows="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("result:"), std::string::npos) << *plan;
  // The σ body runs once per product row: 4 product rows here, plus lhs
  // calls counted per row. The product node itself is applied once.
  EXPECT_NE(plan->find("prod : "), std::string::npos) << *plan;
  // Profiling is restored off afterwards.
  EXPECT_FALSE(eval.node_profiling());
  EXPECT_FALSE(eval.node_profiles().empty());
}

TEST(ExplainAnalyzeTest, CountsEveryLambdaBodyApplication) {
  // Spans skip lambda bodies; the explain analyze profile must not.
  obs::Tracer tracer;
  Evaluator eval;
  eval.set_tracer(&tracer);
  Database db = UnaryDb(400);
  Expr q = UnaryMap();
  auto plan = ExplainAnalyzeExpr(q, db, eval);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const Expr& tup = q->children[0];
  const Expr& proj = tup->children[0];
  const Expr& var = proj->children[0];
  for (const Expr* body_node : {&tup, &proj, &var}) {
    auto it = eval.node_profiles().find(body_node->raw());
    ASSERT_NE(it, eval.node_profiles().end());
    EXPECT_EQ(it->second.calls, 400u);
  }
  EXPECT_NE(plan->find("calls=400"), std::string::npos) << *plan;
}

TEST(ExplainAnalyzeTest, PropagatesEvalErrors) {
  Evaluator eval;
  Database db;  // "R"/"S" missing
  auto plan = ExplainAnalyzeExpr(JoinQuery(), db, eval);
  EXPECT_FALSE(plan.ok());
}

// ------------------------------------------------------ exec integration

TEST(ExecTracingTest, PipelineSpanParentsTheIrSpans) {
  obs::Tracer tracer;
  Database db = JoinDb();
  exec::ExecOptions options;
  options.tracer = &tracer;
  auto r = exec::RunPipeline(JoinQuery(), db, options);
  ASSERT_TRUE(r.ok()) << r.status();
  const std::vector<obs::TraceEvent> events = tracer.SnapshotEvents();
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  const obs::TraceEvent* root = nullptr;
  for (const auto& e : events) {
    by_id[e.id] = &e;
    if (e.name == "exec.pipeline") {
      ASSERT_EQ(root, nullptr) << "two exec.pipeline spans";
      root = &e;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->category, "exec");
  EXPECT_EQ(root->parent_id, 0u);
  std::string engine;
  uint64_t rows = 0;
  for (const auto& [k, v] : root->attrs) {
    if (k == "engine") engine = std::get<std::string>(v);
    if (k == "rows") rows = std::get<uint64_t>(v);
  }
  EXPECT_EQ(engine, "ir");
  EXPECT_EQ(rows, r->DistinctCount());
  // Every per-pipeline drain (the join's build side, then the root) has
  // the exec.pipeline span as an ancestor, and the root drain is its child.
  size_t ir_spans = 0;
  bool saw_root_drain = false;
  for (const auto& e : events) {
    if (e.name.rfind("ir.pipeline.", 0) != 0) continue;
    ++ir_spans;
    if (e.name == "ir.pipeline.root") {
      saw_root_drain = true;
      EXPECT_EQ(e.parent_id, root->id);
    }
    uint64_t up = e.parent_id;
    while (up != 0 && up != root->id && by_id.count(up) != 0) {
      up = by_id[up]->parent_id;
    }
    EXPECT_EQ(up, root->id) << e.name << " is not inside exec.pipeline";
  }
  EXPECT_TRUE(saw_root_drain);
  EXPECT_GE(ir_spans, 2u);
}

TEST(ExecTracingTest, DisabledTracerAddsNoWrappers) {
  Database db = JoinDb();
  obs::Tracer off(/*enabled=*/false);
  exec::ExecOptions options;
  options.tracer = &off;
  auto with = exec::RunPipeline(JoinQuery(), db, options);
  auto without = exec::RunPipeline(JoinQuery(), db);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(*with, *without);
  EXPECT_EQ(off.event_count(), 0u);
}

// ----------------------------------------------------------- REPL wiring

TEST(ScriptObsTest, ExplainAnalyzeCommand) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b]*2, [b, c]}}").ok());
  ASSERT_TRUE(runner.RunLine("let S = {{[a, b], [b, c]}}").ok());
  auto r = runner.RunLine(
      "explain analyze map(p -> tup(proj(1, p), proj(4, p)), "
      "sel(p -> proj(2, p) == proj(3, p), prod(R, S)))");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("calls="), std::string::npos) << *r;
  EXPECT_NE(r->find("time="), std::string::npos) << *r;
  EXPECT_NE(r->find("rows="), std::string::npos) << *r;
}

TEST(ScriptObsTest, TimingToggle) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("timing on").ok());
  auto r = runner.RunLine("eval uplus('{{a}}, '{{a}})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("time="), std::string::npos) << *r;
  EXPECT_NE(r->find("steps="), std::string::npos) << *r;
  ASSERT_TRUE(runner.RunLine("timing off").ok());
  auto quiet = runner.RunLine("eval uplus('{{a}}, '{{a}})");
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->find("steps="), std::string::npos) << *quiet;
  EXPECT_FALSE(runner.RunLine("timing maybe").ok());
}

/// A trace file path unique to this process and test, removed when the
/// test ends. Declare it before the runner that writes the file, so the
/// file outlives the runner's last write.
class ScopedTracePath {
 public:
  explicit ScopedTracePath(const std::string& stem) {
    const testing::TestInfo* test =
        testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/" + stem + "_" +
            std::to_string(::getpid()) + "_" + test->name() + ".json";
  }
  ~ScopedTracePath() { std::remove(path_.c_str()); }
  ScopedTracePath(const ScopedTracePath&) = delete;
  ScopedTracePath& operator=(const ScopedTracePath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ScriptObsTest, TraceCommandWritesValidChromeTrace) {
  const ScopedTracePath trace("bagalg_script_trace");
  const std::string& path = trace.path();
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b]*2, [b, c]}}").ok());
  auto on = runner.RunLine("\\trace " + path);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(
      runner.RunLine("eval sel(p -> proj(1, p) == proj(1, p), R)").ok());
  auto off = runner.RunLine("\\trace off");
  ASSERT_TRUE(off.ok()) << off.status();

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string json = buffer.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"sel\""), std::string::npos) << json;
}

TEST(ScriptObsTest, ExecCommandRunsPipelineAndTraces) {
  const ScopedTracePath trace("exec_command_trace");
  const std::string& path = trace.path();
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[a, b]*2, [b, c]}}").ok());
  auto direct = runner.RunLine("eval sel(p -> proj(1, p) == 'a, R)");
  ASSERT_TRUE(runner.RunLine("\\trace " + path).ok());
  auto piped = runner.RunLine("exec sel(p -> proj(1, p) == 'a, R)");
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_EQ(*piped, *direct);  // both engines agree
  bool saw_exec_span = false;
  for (const auto& e : runner.tracer().SnapshotEvents()) {
    if (e.category == "exec") saw_exec_span = true;
  }
  EXPECT_TRUE(saw_exec_span);
}

TEST(ScriptObsTest, MetricsCommandPrintsRegistry) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("eval '{{a}}").ok());
  auto r = runner.RunLine("\\metrics");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("repl.statements"), std::string::npos) << *r;
}

}  // namespace
}  // namespace bagalg
