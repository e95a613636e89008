// Execution-engine comparison: tree-walking evaluator vs the fused batched
// IR engine (exec::RunPipeline) on BALG¹ workloads (the paper's tractable
// fragment, Thm 4.4).
//
// The IR engine fuses map/σ/π into one pass over 1024-row batches, promotes
// σ-over-× equi predicates to hash joins, and amortizes per-row overhead
// (virtual calls, governor ticking) across each batch; pipeline breakers
// (−, ∩, ε) materialize, mirroring how SQL engines treat DISTINCT/EXCEPT.
// The table checks exact agreement with the evaluator; the benches chart
// both engines as the inputs grow — the BM_EvaluatorJoin / BM_IrJoin pair
// is the 2x gate of CI's bench-exec-smoke job, BM_IrLowerOnly/{64,4096}
// its plan-time gate, and BM_IrUnionChain / BM_EvaluatorUnionChain at
// 16384 and at distinct/4096 its union-chain gates. BM_EvaluatorHeavy /
// BM_IrHeavy time the perfbench exec_heavy templates the evaluator serves,
// on data of that workload's shape.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/ir/lower.h"
#include "src/ir/run.h"
#include "src/lang/parser.h"
#include "src/obs/trace.h"
#include "src/stats/expr_gen.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

using namespace bagalg;

namespace {

Expr JoinChain() {
  // π1(σ_{2=3}((R × S) selective pipeline)).
  return ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                             Product(Input("R"), Input("S"))),
                      {1, 4});
}

Database MakeDb(size_t elements, uint64_t seed = 7) {
  Rng rng(seed);
  FlatBagSpec spec1;
  spec1.arity = 2;
  spec1.num_atoms = 16;
  spec1.num_elements = elements;
  spec1.max_mult = 3;
  Database db;
  (void)db.Put("R", RandomFlatBag(rng, spec1));
  (void)db.Put("S", RandomFlatBag(rng, spec1));
  return db;
}

void PrintAgreementSweep() {
  // stderr, so --benchmark_format=json output on stdout stays parseable.
  std::fprintf(stderr,
               "=== fused IR vs evaluator: agreement on random "
               "BALG¹ queries ===\n");
  Rng rng(4242);
  Type tup2 = Type::Tuple({Type::Atom(), Type::Atom()});
  Schema schema{{"R", Type::Bag(tup2)}, {"S", Type::Bag(tup2)}};
  ExprGenOptions options;
  options.max_bag_nesting = 1;
  options.allow_powerset = false;
  Evaluator eval;
  int ir_agree = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    auto e = RandomExpr(rng, schema, options);
    if (!e.ok()) continue;
    Database db = MakeDb(6, 1000 + static_cast<uint64_t>(i));
    auto r1 = eval.EvalToBag(*e, db);
    auto r2 = exec::RunPipeline(*e, db);
    if (r1.ok() && r2.ok() && *r1 == *r2) ++ir_agree;
  }
  std::fprintf(stderr, "  fused ir: %d/%d identical bags\n\n", ir_agree,
               trials);
}

void BM_EvaluatorJoin(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Expr q = JoinChain();
  Evaluator eval;
  // Null unless --bagalg_trace=FILE was passed: the disabled path costs one
  // pointer test per AST node, which is what the ≤2% budget measures.
  eval.set_tracer(obs::GlobalTracerIfEnabled());
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvaluatorJoin)->RangeMultiplier(4)->Range(16, 1024);

// The fused batched engine on the same join: hash-join promotion plus
// fused σ/π stages. CI's bench-exec-smoke gate wants ≥2x over
// BM_EvaluatorJoin at n=256 and n=1024.
void BM_IrJoin(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Expr q = JoinChain();
  exec::ExecOptions options;
  options.tracer = obs::GlobalTracerIfEnabled();
  for (auto _ : state) {
    auto r = exec::RunPipeline(q, db, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IrJoin)->RangeMultiplier(4)->Range(16, 1024);

/// R and S with exactly `distinct` distinct 2-tuples each (at most 4096),
/// counts in [1, 3]. MakeDb draws from 16 atoms, so it tops out at 256.
Database MakeDistinctDb(size_t distinct, uint64_t seed = 7) {
  Rng rng(seed);
  const std::vector<Value> atoms = AtomPool(64);
  Database db;
  for (const char* name : {"R", "S"}) {
    Bag::Builder builder;
    for (size_t i = 0; i < distinct; ++i) {
      // (i mod 64, i div 64 + i mod 64) is injective on [0, 4096), and
      // neither column is constant.
      builder.Add(Value::Tuple({atoms[i % 64], atoms[(i / 64 + i) % 64]}),
                  Mult(rng.Range(1, 3)));
    }
    (void)db.Put(name, std::move(builder).Build().value());
  }
  return db;
}

// Plan-time cost of the IR front half (typecheck, lowering, passes) — the
// per-query overhead the batched execution must amortize — over inputs of
// 64 and 4096 distinct tuples. Plan time should depend on the plan, not
// the data: CI's bench-exec-smoke gate wants /4096 within 2x of /64.
void BM_IrLowerOnly(benchmark::State& state) {
  Database db = MakeDistinctDb(static_cast<size_t>(state.range(0)));
  Expr q = JoinChain();
  for (auto _ : state) {
    auto r = ir::LowerToIr(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IrLowerOnly)->Arg(64)->Arg(4096);

Expr UnionChain() {
  return Uplus(Uplus(Input("R"), Input("S")), Uplus(Input("S"), Input("R")));
}

void EvaluatorUnionChain(benchmark::State& state, const Database& db) {
  Expr q = UnionChain();
  Evaluator eval;
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}

// The IR drains R ⊎ S ⊎ S ⊎ R as four concatenated canonical streams of
// flat cells and merges them. CI's bench-exec-smoke gate wants /16384
// within 1.5x of BM_EvaluatorUnionChain/16384 (lowering runs inside the
// timed loop) and /distinct/4096 no slower than the evaluator's.
void IrUnionChain(benchmark::State& state, const Database& db) {
  Expr q = UnionChain();
  for (auto _ : state) {
    auto r = exec::RunPipeline(q, db);
    benchmark::DoNotOptimize(r);
  }
}

// MakeDb caps at 256 distinct tuples, so sizes above 256 grow the counts.
void BM_EvaluatorUnionChain(benchmark::State& state) {
  EvaluatorUnionChain(state, MakeDb(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_EvaluatorUnionChain)->RangeMultiplier(8)->Range(64, 1 << 14);

void BM_IrUnionChain(benchmark::State& state) {
  IrUnionChain(state, MakeDb(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_IrUnionChain)->RangeMultiplier(8)->Range(64, 1 << 14);

// The same chains over 1024 and 4096 distinct tuples.
void BM_EvaluatorUnionChainDistinct(benchmark::State& state) {
  EvaluatorUnionChain(state,
                      MakeDistinctDb(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_EvaluatorUnionChainDistinct)
    ->Name("BM_EvaluatorUnionChain/distinct")
    ->Arg(1024)
    ->Arg(4096);

void BM_IrUnionChainDistinct(benchmark::State& state) {
  IrUnionChain(state, MakeDistinctDb(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_IrUnionChainDistinct)
    ->Name("BM_IrUnionChain/distinct")
    ->Arg(1024)
    ->Arg(4096);

// Bag::Builder over 16384 rows of 4096 distinct flat 2-tuples arriving as
// `range(0)` sorted runs (1, 4 or 64), or in random order when range(0)
// is 0.
// One run skips the sort, a few runs are merged, shuffled input is sorted.
void BM_BuilderRuns(benchmark::State& state) {
  const size_t n = 16384;
  const size_t runs = static_cast<size_t>(state.range(0));
  Rng rng(11);
  const std::vector<Value> atoms = AtomPool(64);
  std::vector<Value> rows;
  for (size_t i = 0; i < n; ++i) {
    const size_t v = rng.Below(4096);
    rows.push_back(Value::Tuple({atoms[v % 64], atoms[v / 64]}));
  }
  for (size_t r = 0; r < runs; ++r) {
    std::sort(rows.begin() + r * n / runs, rows.begin() + (r + 1) * n / runs);
  }
  for (auto _ : state) {
    Bag::Builder builder;
    builder.Reserve(n);
    for (const Value& row : rows) builder.Add(row, Mult(2));
    auto bag = std::move(builder).Build();
    benchmark::DoNotOptimize(bag);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BuilderRuns)->Arg(1)->Arg(4)->Arg(64)->Arg(0);

// perfbench's exec_heavy data: R, S, T and D of 1500, 1200, 1000 and 250
// distinct pairs [c<0..199>, k<0..999>], counts 1-3.
Database MakeHeavyDb() {
  Rng rng(26);
  const std::vector<Value> groups = AtomPool(200, "c");
  const std::vector<Value> keys = AtomPool(1000, "k");
  Database db;
  for (const auto& [name, size] : {std::pair<const char*, size_t>{"R", 1500},
                                   {"S", 1200},
                                   {"T", 1000},
                                   {"D", 250}}) {
    Bag::Builder builder;
    std::vector<bool> used(200 * 1000, false);
    for (size_t n = 0; n < size;) {
      const size_t g = rng.Below(200);
      const size_t k = rng.Below(1000);
      if (used[g * 1000 + k]) continue;
      used[g * 1000 + k] = true;
      builder.Add(Value::Tuple({groups[g], keys[k]}), Mult(rng.Range(1, 3)));
      ++n;
    }
    (void)db.Put(name, *std::move(builder).Build());
  }
  return db;
}

// The exec_heavy templates the evaluator runs in server time.
struct HeavyTemplate {
  const char* name;
  const char* text;
};
constexpr HeavyTemplate kHeavyTemplates[] = {
    {"union_chain",
     "map(x -> tup(proj(1, x)), uplus(uplus(R, S), uplus(T, D)))"},
    {"monus", "map(x -> tup(proj(1, x)), monus(uplus(R, D), S))"},
    {"eps_inter",
     "dedup(map(x -> tup(proj(1, x)), inter(uplus(R, S), uplus(T, D))))"},
    {"select_const",
     "map(x -> tup(proj(2, x)), sel(x -> proj(1, x) == 'c7, uplus(R, T)))"},
    {"mix",
     "dedup(map(x -> tup(proj(1, x)), uplus(monus(S, D), inter(T, R))))"},
};

void EvaluatorHeavy(benchmark::State& state, const Expr& q) {
  static const Database db = MakeHeavyDb();
  Evaluator eval;
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}

void IrHeavy(benchmark::State& state, const Expr& q) {
  static const Database db = MakeHeavyDb();
  for (auto _ : state) {
    auto r = exec::RunPipeline(q, db);
    benchmark::DoNotOptimize(r);
  }
}

void RegisterHeavyBenchmarks() {
  for (const HeavyTemplate& t : kHeavyTemplates) {
    auto q = lang::ParseExpr(t.text);
    if (!q.ok()) {
      std::fprintf(stderr, "bad template %s\n", t.text);
      continue;
    }
    benchmark::RegisterBenchmark(
        (std::string("BM_EvaluatorHeavy/") + t.name).c_str(), EvaluatorHeavy,
        *q);
    benchmark::RegisterBenchmark((std::string("BM_IrHeavy/") + t.name).c_str(),
                                 IrHeavy, *q);
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs::EnableGlobalTraceFromArgs(&argc, argv);
  PrintAgreementSweep();
  RegisterHeavyBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
