// Unit and property tests for BigNat, the arbitrary-precision multiplicity
// type. Cross-checks all arithmetic against 64-bit reference computations on
// random operands, plus exact large-number identities.

#include "src/util/bignat.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/rng.h"

namespace bagalg {
namespace {

TEST(BigNatTest, DefaultIsZero) {
  BigNat n;
  EXPECT_TRUE(n.IsZero());
  EXPECT_EQ(n.ToString(), "0");
  EXPECT_EQ(n.BitLength(), 0u);
  EXPECT_EQ(n.ToUint64().value(), 0u);
}

TEST(BigNatTest, SmallConstruction) {
  BigNat n(42);
  EXPECT_FALSE(n.IsZero());
  EXPECT_EQ(n.ToString(), "42");
  EXPECT_EQ(n.ToUint64().value(), 42u);
  EXPECT_EQ(n.BitLength(), 6u);
}

TEST(BigNatTest, Uint64BoundaryConstruction) {
  BigNat n(~uint64_t{0});
  EXPECT_EQ(n.ToString(), "18446744073709551615");
  EXPECT_EQ(n.ToUint64().value(), ~uint64_t{0});
  EXPECT_EQ(n.BitLength(), 64u);
}

TEST(BigNatTest, AdditionCarriesAcrossLimbs) {
  BigNat a(~uint64_t{0});
  BigNat sum = a + BigNat(1);
  EXPECT_EQ(sum.ToString(), "18446744073709551616");
  EXPECT_FALSE(sum.FitsUint64());
  EXPECT_FALSE(sum.ToUint64().ok());
}

TEST(BigNatTest, MultiplicationLarge) {
  // (2^64)^2 = 2^128.
  BigNat a = BigNat(~uint64_t{0}) + BigNat(1);
  BigNat sq = a * a;
  EXPECT_EQ(sq, BigNat::TwoPow(128));
  EXPECT_EQ(sq.ToString(), "340282366920938463463374607431768211456");
}

TEST(BigNatTest, TwoPowMatchesRepeatedDoubling) {
  BigNat doubling(1);
  for (uint64_t i = 0; i <= 200; ++i) {
    EXPECT_EQ(BigNat::TwoPow(i), doubling) << "at exponent " << i;
    doubling = doubling + doubling;
  }
}

TEST(BigNatTest, PowMatchesRepeatedMultiplication) {
  BigNat base(7);
  BigNat acc(1);
  for (uint64_t e = 0; e < 40; ++e) {
    EXPECT_EQ(BigNat::Pow(base, e), acc) << "at exponent " << e;
    acc = acc * base;
  }
}

TEST(BigNatTest, MonusSaturatesAtZero) {
  EXPECT_EQ(BigNat(5).MonusSub(BigNat(7)), BigNat(0));
  EXPECT_EQ(BigNat(7).MonusSub(BigNat(5)), BigNat(2));
  EXPECT_EQ(BigNat(7).MonusSub(BigNat(7)), BigNat(0));
}

TEST(BigNatTest, CheckedSubUnderflowIsError) {
  auto r = BigNat(3).CheckedSub(BigNat(4));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BigNatTest, CheckedSubBorrowsAcrossLimbs) {
  BigNat big = BigNat::TwoPow(100);
  auto r = big.CheckedSub(BigNat(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r + BigNat(1), big);
  EXPECT_EQ(r->BitLength(), 100u);
}

TEST(BigNatTest, DivModByZeroIsError) {
  auto r = BigNat(10).DivMod(BigNat(0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BigNatTest, DivModSmallDivisor) {
  auto r = BigNat(1000001).DivMod(BigNat(10));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quotient, BigNat(100000));
  EXPECT_EQ(r->remainder, BigNat(1));
}

TEST(BigNatTest, DivModLargeDivisor) {
  BigNat a = BigNat::Pow(BigNat(10), 50) + BigNat(123);
  BigNat d = BigNat::Pow(BigNat(10), 20);
  auto r = a.DivMod(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quotient, BigNat::Pow(BigNat(10), 30));
  EXPECT_EQ(r->remainder, BigNat(123));
}

TEST(BigNatTest, FromDecimalRoundTrip) {
  const char* cases[] = {"0", "1", "999999999", "1000000000",
                         "340282366920938463463374607431768211456",
                         "00042"};
  const char* expected[] = {"0", "1", "999999999", "1000000000",
                            "340282366920938463463374607431768211456", "42"};
  for (size_t i = 0; i < 6; ++i) {
    auto r = BigNat::FromDecimal(cases[i]);
    ASSERT_TRUE(r.ok()) << cases[i];
    EXPECT_EQ(r->ToString(), expected[i]);
  }
}

TEST(BigNatTest, FromDecimalRejectsGarbage) {
  EXPECT_FALSE(BigNat::FromDecimal("").ok());
  EXPECT_FALSE(BigNat::FromDecimal("12x3").ok());
  EXPECT_FALSE(BigNat::FromDecimal("-5").ok());
}

TEST(BigNatTest, CompareTotalOrder) {
  BigNat a(3), b(5), c = BigNat::TwoPow(70);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(BigNat::Max(a, b), b);
  EXPECT_EQ(BigNat::Min(a, c), a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(c >= b);
}

TEST(BigNatTest, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigNat(12345).ToDouble(), 12345.0);
  double big = BigNat::TwoPow(80).ToDouble();
  EXPECT_NEAR(big / 1.2089258196146292e24, 1.0, 1e-12);
}

TEST(BigNatTest, DecimalDigitsCount) {
  EXPECT_EQ(BigNat(0).DecimalDigits(), 1u);
  EXPECT_EQ(BigNat(9).DecimalDigits(), 1u);
  EXPECT_EQ(BigNat(10).DecimalDigits(), 2u);
  EXPECT_EQ(BigNat::Pow(BigNat(10), 30).DecimalDigits(), 31u);
}

TEST(BigNatTest, HashEqualForEqualValues) {
  BigNat a = BigNat::Pow(BigNat(3), 100);
  BigNat b = BigNat::Pow(BigNat(3), 100);
  EXPECT_EQ(a.Hash(), b.Hash());
}

// ---- randomized cross-checks against 64-bit arithmetic --------------------

class BigNatPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigNatPropertyTest, ArithmeticAgreesWithUint64) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    uint64_t x = rng.Below(1u << 31);
    uint64_t y = rng.Below(1u << 31);
    BigNat bx(x), by(y);
    EXPECT_EQ((bx + by).ToUint64().value(), x + y);
    EXPECT_EQ((bx * by).ToUint64().value(), x * y);
    EXPECT_EQ(bx.MonusSub(by).ToUint64().value(), x > y ? x - y : 0);
    EXPECT_EQ(bx.Compare(by), x < y ? -1 : (x == y ? 0 : 1));
    if (y != 0) {
      auto dm = bx.DivMod(by);
      ASSERT_TRUE(dm.ok());
      EXPECT_EQ(dm->quotient.ToUint64().value(), x / y);
      EXPECT_EQ(dm->remainder.ToUint64().value(), x % y);
    }
  }
}

TEST_P(BigNatPropertyTest, AlgebraicLawsOnLargeOperands) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 50; ++i) {
    BigNat a = BigNat::Pow(BigNat(rng.Range(2, 9)), rng.Range(10, 60));
    BigNat b = BigNat::Pow(BigNat(rng.Range(2, 9)), rng.Range(10, 60));
    BigNat c(rng.Below(1u << 20));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ((a + b).MonusSub(b), a);
    auto dm = (a * b + c).DivMod(b);
    ASSERT_TRUE(dm.ok());
    if (c < b) {
      EXPECT_EQ(dm->quotient, a);
      EXPECT_EQ(dm->remainder, c);
    }
    // Decimal round-trip.
    auto parsed = BigNat::FromDecimal((a * b).ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a * b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigNatPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---- inline fast path: 2^32 / 2^64 boundaries and promotion round-trips --

TEST(BigNatFastPathTest, ValuesBelowTwoPow64StayInline) {
  const uint64_t k32 = uint64_t{1} << 32;
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, k32 - 1, k32, k32 + 1,
                     UINT64_MAX - 1, UINT64_MAX}) {
    BigNat n(v);
    EXPECT_TRUE(n.IsInlined()) << v;
    EXPECT_TRUE(n.FitsUint64()) << v;
    EXPECT_EQ(n.ToUint64().value(), v);
    EXPECT_EQ(n.ToString(), std::to_string(v));
  }
  EXPECT_TRUE(BigNat::TwoPow(63).IsInlined());
  EXPECT_FALSE(BigNat::TwoPow(64).IsInlined());
}

TEST(BigNatFastPathTest, AdditionPromotesExactlyAtTwoPow64) {
  EXPECT_TRUE((BigNat(UINT64_MAX - 1) + BigNat(1)).IsInlined());
  BigNat sum = BigNat(UINT64_MAX) + BigNat(1);
  EXPECT_FALSE(sum.IsInlined());
  EXPECT_EQ(sum, BigNat::TwoPow(64));
  EXPECT_EQ(sum.BitLength(), 65u);
  EXPECT_EQ(sum.ToString(), "18446744073709551616");
}

TEST(BigNatFastPathTest, MultiplicationPromotesExactlyAtTwoPow64) {
  // (2^32 - 1)(2^32 + 1) = 2^64 - 1: the largest inline product.
  const uint64_t k32 = uint64_t{1} << 32;
  BigNat largest = BigNat(k32 - 1) * BigNat(k32 + 1);
  EXPECT_TRUE(largest.IsInlined());
  EXPECT_EQ(largest.ToUint64().value(), UINT64_MAX);
  // 2^32 · 2^32 = 2^64: the smallest promoting product.
  BigNat promoted = BigNat(k32) * BigNat(k32);
  EXPECT_FALSE(promoted.IsInlined());
  EXPECT_EQ(promoted, BigNat::TwoPow(64));
  EXPECT_FALSE((BigNat::TwoPow(63) * BigNat(2)).IsInlined());
}

TEST(BigNatFastPathTest, SlowPathResultsDemoteBackToInline) {
  // Arithmetic that dips into limb form but lands below 2^64 must return
  // to the inline representation (the canonical-form invariant).
  BigNat big = BigNat::TwoPow(64);
  BigNat back = big.MonusSub(BigNat(1));
  EXPECT_TRUE(back.IsInlined());
  EXPECT_EQ(back.ToUint64().value(), UINT64_MAX);

  auto dm = big.DivMod(BigNat(2));
  ASSERT_TRUE(dm.ok());
  EXPECT_TRUE(dm->quotient.IsInlined());
  EXPECT_EQ(dm->quotient, BigNat::TwoPow(63));

  BigNat wide = BigNat::Pow(BigNat(7), 40);   // ~112 bits
  BigNat narrow = BigNat::Pow(BigNat(7), 20); // ~56 bits
  auto exact = wide.DivMod(narrow);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->quotient.IsInlined());
  EXPECT_EQ(exact->quotient, narrow);
  EXPECT_TRUE(exact->remainder.IsZero());
}

TEST(BigNatFastPathTest, PromotionRoundTripPreservesEqualityHashCompare) {
  const uint64_t samples[] = {1, 42, (uint64_t{1} << 32) - 1,
                              uint64_t{1} << 32, UINT64_MAX};
  for (uint64_t v : samples) {
    BigNat direct(v);
    // Route the same value through the slow path and back.
    BigNat round =
        (direct + BigNat::TwoPow(64)).MonusSub(BigNat::TwoPow(64));
    EXPECT_TRUE(round.IsInlined()) << v;
    EXPECT_EQ(round, direct);
    EXPECT_EQ(round.Hash(), direct.Hash());
    EXPECT_EQ(round.Compare(direct), 0);
  }
}

TEST(BigNatFastPathTest, CompareSpansTheBoundary) {
  BigNat below(UINT64_MAX);
  BigNat at = BigNat::TwoPow(64);
  BigNat above = at + BigNat(1);
  EXPECT_LT(below.Compare(at), 0);
  EXPECT_GT(at.Compare(below), 0);
  EXPECT_LT(at.Compare(above), 0);
  EXPECT_EQ(at.Compare(BigNat::TwoPow(64)), 0);
}

TEST(BigNatFastPathTest, SlowPathCounterTracksPromotions) {
  BigNat::ResetSlowPathOps();
  BigNat a = BigNat(123456) * BigNat(654321);  // inline throughout
  EXPECT_EQ(BigNat::SlowPathOps(), 0u);
  BigNat b = BigNat::TwoPow(64) + a;  // limb-vector arithmetic
  EXPECT_GT(BigNat::SlowPathOps(), 0u);
  EXPECT_FALSE(b.IsInlined());
}

TEST(BigNatFastPathTest, DecimalRoundTripAcrossTheBoundary)  {
  for (const char* text :
       {"18446744073709551615", "18446744073709551616", "4294967295",
        "4294967296", "4294967297", "340282366920938463463374607431768211456"}) {
    auto parsed = BigNat::FromDecimal(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->ToString(), text);
    EXPECT_EQ(parsed->IsInlined(), parsed->FitsUint64());
  }
}

// ------------------------------------------------------- decimal output

/// The decimal digits of `n` by repeated DivMod by ten: a route that
/// shares no code with AppendDecimal or WriteDecimal.
std::string SlowDecimal(BigNat n) {
  if (n.IsZero()) return "0";
  std::string digits;
  while (!n.IsZero()) {
    auto step = n.DivMod(BigNat(10));
    digits.push_back(static_cast<char>('0' + *step->remainder.ToUint64()));
    n = std::move(step->quotient);
  }
  return std::string(digits.rbegin(), digits.rend());
}

/// AppendDecimal (after a prefix it must keep), ToString and WriteDecimal
/// agree with the slow route, stay within MaxDecimalDigits, and parse back.
void ExpectDecimalAgrees(const BigNat& n) {
  const std::string want = SlowDecimal(n);
  EXPECT_EQ(n.ToString(), want);
  std::string appended = "x=";
  n.AppendDecimal(&appended);
  EXPECT_EQ(appended, "x=" + want);
  std::string room(n.MaxDecimalDigits(), '?');
  char* end = n.WriteDecimal(room.data());
  EXPECT_EQ(std::string(room.data(), end), want);
  EXPECT_LE(want.size(), n.MaxDecimalDigits());
  EXPECT_EQ(n.DecimalDigits(), want.size());
  auto parsed = BigNat::FromDecimal(want);
  ASSERT_TRUE(parsed.ok()) << want;
  EXPECT_EQ(*parsed, n) << want;
}

TEST(BigNatDecimalTest, RandomValuesOfOneToEightLimbs) {
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t limbs = 1 + trial % 8;
    BigNat n;
    for (size_t i = 0; i < limbs; ++i) {
      n = n * BigNat::TwoPow(32) + BigNat(rng.Next() & 0xFFFFFFFFu);
    }
    // A nonzero top limb, so the value really has `limbs` limbs.
    n = n + BigNat::TwoPow(32 * limbs - 1);
    ExpectDecimalAgrees(n);
  }
}

TEST(BigNatDecimalTest, LimbAndPowerOfTenBoundariesUpTo2To256) {
  std::vector<BigNat> edges;
  for (uint64_t k = 1; k <= 8; ++k) {
    edges.push_back(BigNat::TwoPow(32 * k));  // 2^(32k)
  }
  for (uint64_t k = 1; 19 * k <= 77; ++k) {
    edges.push_back(BigNat::Pow(BigNat(10), 19 * k));  // 10^(19k)
  }
  edges.push_back(BigNat::TwoPow(128));
  edges.push_back(BigNat::TwoPow(127));
  for (const BigNat& edge : edges) {
    ASSERT_LE(edge, BigNat::TwoPow(256));
    ExpectDecimalAgrees(edge);
    ExpectDecimalAgrees(edge + BigNat(1));
    ExpectDecimalAgrees(edge.MonusSub(BigNat(1)));  // 2^(32k) - 1, ...
  }
  ExpectDecimalAgrees(BigNat(0));
  ExpectDecimalAgrees(BigNat(9));
  ExpectDecimalAgrees(BigNat(10));
  EXPECT_EQ(BigNat::TwoPow(128).MonusSub(BigNat(1)).ToString(),
            "340282366920938463463374607431768211455");
}

}  // namespace
}  // namespace bagalg
