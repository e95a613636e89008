// Operator microbenchmarks — per-operator throughput of the semantic core
// (src/core/bag_ops.h) as the input grows. Not tied to a single paper
// table; establishes the cost model the experiment benches build on
// (merges are O(distinct), products O(d1·d2), powerset O(output)).
// BM_ParseBagLiteral times the surface parser on the `let` literals a
// wide write sends.

#include <benchmark/benchmark.h>

#include <set>
#include <string>

#include "src/core/bag_ops.h"
#include "src/lang/parser.h"
#include "src/obs/trace.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

using namespace bagalg;

namespace {

Bag MakeInput(size_t elements, uint64_t seed = 123) {
  Rng rng(seed);
  FlatBagSpec spec;
  spec.arity = 2;
  spec.num_atoms = 64;
  spec.num_elements = elements;
  spec.max_mult = 4;
  return RandomFlatBag(rng, spec);
}

void BM_AdditiveUnion(benchmark::State& state) {
  Bag a = MakeInput(static_cast<size_t>(state.range(0)), 1);
  Bag b = MakeInput(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto r = AdditiveUnion(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AdditiveUnion)->RangeMultiplier(8)->Range(64, 1 << 15);

void BM_Subtract(benchmark::State& state) {
  Bag a = MakeInput(static_cast<size_t>(state.range(0)), 1);
  Bag b = MakeInput(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto r = Subtract(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Subtract)->RangeMultiplier(8)->Range(64, 1 << 15);

void BM_Intersect(benchmark::State& state) {
  Bag a = MakeInput(static_cast<size_t>(state.range(0)), 1);
  Bag b = MakeInput(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto r = Intersect(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Intersect)->RangeMultiplier(8)->Range(64, 1 << 15);

void BM_CartesianProduct(benchmark::State& state) {
  Bag a = MakeInput(static_cast<size_t>(state.range(0)), 1);
  Bag b = MakeInput(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto r = CartesianProduct(a, b);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CartesianProduct)->RangeMultiplier(4)->Range(16, 512);

void BM_DupElim(benchmark::State& state) {
  Bag a = MakeInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = DupElim(a);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DupElim)->RangeMultiplier(8)->Range(64, 1 << 15);

void BM_BagDestroy(benchmark::State& state) {
  Rng rng(7);
  FlatBagSpec inner;
  inner.num_elements = 8;
  Bag nested = RandomNestedBag(rng, static_cast<size_t>(state.range(0)),
                               inner);
  for (auto _ : state) {
    auto r = BagDestroy(nested);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BagDestroy)->RangeMultiplier(4)->Range(8, 2048);

void BM_NestOp(benchmark::State& state) {
  Bag a = MakeInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = Nest(a, {1});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NestOp)->RangeMultiplier(8)->Range(64, 1 << 13);

/// A bag literal of `entries` distinct pairs [a<i>, b<j>] over 200 x 200
/// atoms, with counts 1-9 (1 written bare) and, for a `big_share` of the
/// entries, a 21-digit count past 2^64.
std::string WideLiteral(size_t entries, double big_share) {
  Rng rng(entries);
  std::set<uint64_t> chosen;
  std::string out = "{{";
  while (chosen.size() < entries) {
    const uint64_t i = rng.Below(200);
    const uint64_t j = rng.Below(200);
    if (!chosen.insert(i * 200 + j).second) continue;
    if (chosen.size() > 1) out += ", ";
    out += "[a";
    out += std::to_string(i);
    out += ", b";
    out += std::to_string(j);
    out += "]";
    if (rng.Coin(big_share)) {
      out += "*2";
      for (int d = 0; d < 20; ++d) {
        out += static_cast<char>('0' + rng.Below(10));
      }
    } else if (const uint64_t n = rng.Range(1, 9); n > 1) {
      out += "*";
      out += std::to_string(n);
    }
  }
  return out + "}}";
}

void ParseLiteral(benchmark::State& state, double big_share) {
  const size_t entries = static_cast<size_t>(state.range(0));
  const std::string text = WideLiteral(entries, big_share);
  for (auto _ : state) {
    auto v = lang::ParseValue(text);
    if (!v.ok()) state.SkipWithError("literal did not parse");
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ParseBagLiteral(benchmark::State& state) { ParseLiteral(state, 0); }
BENCHMARK(BM_ParseBagLiteral)->Arg(256)->Arg(2048);

void BM_ParseBagLiteralBigCounts(benchmark::State& state) {
  ParseLiteral(state, 0.05);
}
BENCHMARK(BM_ParseBagLiteralBigCounts)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  // --bagalg_trace=FILE writes a Chrome trace of any spans recorded during
  // the run (empty but valid for these core-op benches, which sit below the
  // instrumented layers).
  bagalg::obs::EnableGlobalTraceFromArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
