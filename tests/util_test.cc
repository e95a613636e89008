// Tests for the util substrate: Status/Result plumbing, string helpers,
// and the deterministic RNG.

#include "src/util/status.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "src/util/parallel.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace bagalg {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::TypeError("tuple arity mismatch");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_EQ(st.ToString(), "TypeError: tuple arity mismatch");
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  BAGALG_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto err = Doubled(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyFriendly) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(StringsTest, JoinAndSplit) {
  std::vector<int> xs = {1, 2, 3};
  EXPECT_EQ(JoinToString(xs, ", "), "1, 2, 3");
  EXPECT_EQ(JoinToString(std::vector<int>{}, ","), "");
  auto parts = SplitString("a\nb\n\nc", '\n');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(SplitString("", ';').size(), 1u);
  EXPECT_TRUE(StartsWith("bagalg", "bag"));
  EXPECT_FALSE(StartsWith("bag", "bagalg"));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345), c(54321);
  bool all_same = true;
  bool any_differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_same = all_same && va == vb;
    any_differs = any_differs || va != vc;
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_differs);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, CoinIsRoughlyFair) {
  Rng rng(31337);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Coin()) ++heads;
  }
  double p = static_cast<double>(heads) / trials;
  EXPECT_NEAR(p, 0.5, 0.02);
  // Biased coin.
  int biased = 0;
  for (int i = 0; i < trials; ++i) {
    if (rng.Coin(0.1)) ++biased;
  }
  EXPECT_NEAR(static_cast<double>(biased) / trials, 0.1, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(8);
  Rng child = parent.Fork();
  // The child stream should not replicate the parent's next values.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

// --------------------------------------------------- thread pool / parallel

/// Restores the default pool configuration when a test exits.
struct PoolConfigGuard {
  ~PoolConfigGuard() { ThreadPool::Configure(ParallelOptions::Default()); }
};

TEST(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  PoolConfigGuard guard;
  ThreadPool::Configure({4, 8});
  const size_t n = 1000;
  // Chunks cover disjoint ranges, so plain ints are race-free.
  std::vector<int> hits(n, 0);
  size_t chunks = ParallelFor(n, 8, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_GE(chunks, 2u);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelTest, TransformReduceMatchesSerialSum) {
  PoolConfigGuard guard;
  ThreadPool::Configure({3, 16});
  const uint64_t n = 4096;
  uint64_t total = ParallelTransformReduce<uint64_t>(
      n, 16, 0,
      [](size_t begin, size_t end, size_t) {
        uint64_t s = 0;
        for (size_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](uint64_t acc, uint64_t next) { return acc + next; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ParallelTest, ReduceFoldsPartialsInChunkIndexOrder) {
  PoolConfigGuard guard;
  ThreadPool::Configure({8, 4});
  const size_t n = 512;
  std::vector<size_t> order = ParallelTransformReduce<std::vector<size_t>>(
      n, 4, {},
      [](size_t, size_t, size_t chunk) {
        return std::vector<size_t>{chunk};
      },
      [](std::vector<size_t> acc, std::vector<size_t> next) {
        acc.insert(acc.end(), next.begin(), next.end());
        return acc;
      });
  ASSERT_GE(order.size(), 2u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelTest, SerialConfigurationDispatchesInline) {
  PoolConfigGuard guard;
  ThreadPool::Configure(ParallelOptions::Serial());
  EXPECT_EQ(ThreadPool::Global().parallelism(), 1u);
  EXPECT_EQ(ParallelChunkCount(size_t{1} << 20), 1u);
  uint64_t sum = 0;
  size_t chunks = ParallelFor(100, 0, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(chunks, 1u);
  EXPECT_EQ(sum, 100u * 99 / 2);
}

TEST(ParallelTest, SmallBatchesStaySerial) {
  PoolConfigGuard guard;
  ThreadPool::Configure({4, 4096});
  // Below 2x grain there is nothing to split.
  EXPECT_EQ(ParallelChunkCount(10), 1u);
  EXPECT_EQ(ParallelChunkCount(0), 1u);
  size_t calls = 0;
  ParallelFor(1, 0, [&](size_t begin, size_t end, size_t) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelTest, NestedParallelSectionsRunInline) {
  PoolConfigGuard guard;
  ThreadPool::Configure({4, 8});
  // A body that itself calls ParallelFor must not deadlock; the inner
  // dispatch runs serially on the worker.
  std::vector<int> hits(256, 0);
  ParallelFor(16, 1, [&](size_t begin, size_t end, size_t) {
    for (size_t outer = begin; outer < end; ++outer) {
      ParallelFor(16, 1, [&](size_t b, size_t e, size_t) {
        for (size_t inner = b; inner < e; ++inner) {
          ++hits[outer * 16 + inner];
        }
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelTest, BackToBackBatchesRunEveryIndexOnce) {
  // Workers that wake late for a batch must not claim indices of the next
  // one: every index of every batch runs exactly once, batch after batch,
  // with more workers than cores so stragglers are common.
  PoolConfigGuard guard;
  ThreadPool::Configure({8, 1});
  const size_t sizes[] = {2, 64, 3, 17};
  std::vector<std::atomic<int>> hits(64);
  for (int round = 0; round < 20000; ++round) {
    const size_t n = sizes[round % 4];
    for (size_t i = 0; i < n; ++i) hits[i].store(0);
    ThreadPool::Global().Run(n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ParallelTest, StatsCountDispatches) {
  PoolConfigGuard guard;
  ThreadPool::Configure({4, 8});
  ParallelStats before = ThreadPool::Stats();
  ParallelFor(1000, 8, [](size_t, size_t, size_t) {});
  ThreadPool::Global().Run(1, [](size_t) {});  // trivial batch: serial path
  ParallelStats after = ThreadPool::Stats();
  EXPECT_GT(after.parallel_dispatches, before.parallel_dispatches);
  EXPECT_GT(after.serial_dispatches, before.serial_dispatches);
  EXPECT_GT(after.tasks_spawned, before.tasks_spawned);
}

}  // namespace
}  // namespace bagalg
