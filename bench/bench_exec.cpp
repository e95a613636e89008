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
// is the 2x gate of CI's bench-exec-smoke job.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/exec/compile.h"
#include "src/ir/lower.h"
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

// Plan-time cost of the IR front half (rewrite, typecheck, lowering,
// passes) — the per-query overhead the batched execution must amortize.
void BM_IrLowerOnly(benchmark::State& state) {
  Database db = MakeDb(64);
  Expr q = JoinChain();
  for (auto _ : state) {
    auto r = ir::LowerToIr(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IrLowerOnly);

void BM_EvaluatorUnionChain(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Expr q = Uplus(Uplus(Input("R"), Input("S")), Uplus(Input("S"), Input("R")));
  Evaluator eval;
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvaluatorUnionChain)->RangeMultiplier(8)->Range(64, 1 << 14);

void BM_IrUnionChain(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Expr q = Uplus(Uplus(Input("R"), Input("S")), Uplus(Input("S"), Input("R")));
  for (auto _ : state) {
    auto r = exec::RunPipeline(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IrUnionChain)->RangeMultiplier(8)->Range(64, 1 << 14);

}  // namespace

int main(int argc, char** argv) {
  obs::EnableGlobalTraceFromArgs(&argc, argv);
  PrintAgreementSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
