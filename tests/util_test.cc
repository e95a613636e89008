// Tests for the util substrate: Status/Result plumbing, string helpers,
// and the deterministic RNG.

#include "src/util/status.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

}  // namespace
}  // namespace bagalg
