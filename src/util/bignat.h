#ifndef BAGALG_UTIL_BIGNAT_H_
#define BAGALG_UTIL_BIGNAT_H_

/// \file bignat.h
/// Arbitrary-precision natural numbers.
///
/// BALG multiplicities explode hyperexponentially under iterated powerset /
/// bag-destroy chains (paper, Proposition 3.2): (deltaP)^i produces counts
/// exponential in the input and (delta delta P P)^i produces hyper(i+1)
/// counts. A 64-bit counter overflows immediately on the workloads of
/// bench_prop32_explosion, so multiplicities are BigNat throughout the
/// engine.
///
/// Representation: a value below 2^64 lives inline in a single uint64_t and
/// never touches the heap — the overwhelmingly common case on real bags,
/// where counts are small and only the explosion experiments escape machine
/// range. Values >= 2^64 spill to a normalized little-endian vector of
/// 32-bit limbs ("the slow path"); arithmetic is schoolbook there, which is
/// ample for the limb counts the experiments reach. Every operation
/// canonicalizes its result (inline iff < 2^64), so equality and hashing
/// never need to reconcile the two forms.

#include <atomic>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace bagalg {

/// An immutable-in-interface, arbitrary-precision natural number.
class BigNat {
 public:
  /// Zero.
  BigNat() = default;
  /// From a machine integer.
  BigNat(uint64_t v) : small_(v) {}  // NOLINT(google-explicit-constructor):
                                     // numeric literal ergonomics;
                                     // multiplicities are written inline in
                                     // tests and benches throughout.

  /// Parses a non-empty decimal string of digits. Leading zeros allowed.
  static Result<BigNat> FromDecimal(std::string_view text);

  /// 2^exp.
  static BigNat TwoPow(uint64_t exp);
  /// base^exp by square-and-multiply.
  static BigNat Pow(const BigNat& base, uint64_t exp);

  bool IsZero() const { return small_ == 0 && limbs_.empty(); }
  bool IsOne() const { return small_ == 1 && limbs_.empty(); }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const;
  /// Number of decimal digits (1 for zero).
  size_t DecimalDigits() const;

  /// True iff the value fits in uint64_t.
  bool FitsUint64() const { return limbs_.empty(); }
  /// True iff the value is held in the inline uint64_t fast path (no heap).
  /// Canonicalization makes this equivalent to FitsUint64(); exposed
  /// separately for the fast-path tests and metrics.
  bool IsInlined() const { return limbs_.empty(); }
  /// The value as uint64_t; error if it does not fit.
  Result<uint64_t> ToUint64() const;
  /// The value as a double (may lose precision; +inf on huge values).
  double ToDouble() const;

  /// The low 64 bits of the value: all of it when FitsUint64().
  uint64_t Low64() const {
    return limbs_.empty()
               ? small_
               : (static_cast<uint64_t>(limbs_[1]) << 32) | limbs_[0];
  }

  /// Decimal rendering.
  std::string ToString() const;
  /// Appends the decimal rendering to `out`, building no temporary string.
  void AppendDecimal(std::string* out) const;
  /// An upper bound on DecimalDigits(), computed without formatting: the
  /// room WriteDecimal needs.
  size_t MaxDecimalDigits() const {
    return limbs_.empty() ? 20 : limbs_.size() * 10;
  }
  /// Writes the decimal rendering at `dst`, which must have room for
  /// MaxDecimalDigits() bytes, and returns the end of what it wrote. A
  /// value below 2^128 takes one 128-bit division by 10^19; a longer one
  /// peels 19 digits per pass over its limbs.
  char* WriteDecimal(char* dst) const {
    if (!limbs_.empty()) return WriteLimbsDecimal(dst);
    if (small_ < 10) {  // most multiplicities
      *dst = static_cast<char>('0' + small_);
      return dst + 1;
    }
    return std::to_chars(dst, dst + 20, small_).ptr;
  }

  /// Three-way comparison: negative, zero, positive.
  int Compare(const BigNat& other) const;

  BigNat operator+(const BigNat& other) const;
  /// Truncated ("monus") subtraction: max(0, *this - other). This is the
  /// subtraction semantics of the paper's bag difference.
  BigNat MonusSub(const BigNat& other) const;
  /// Exact subtraction; error (InvalidArgument) on underflow.
  Result<BigNat> CheckedSub(const BigNat& other) const;
  BigNat operator*(const BigNat& other) const;
  /// Quotient and remainder; error (InvalidArgument) on division by zero.
  struct DivModResult;
  Result<DivModResult> DivMod(const BigNat& divisor) const;

  /// Adds in place; two inline values whose sum fits stay inline without
  /// building a temporary (the combine step of every canonicalizing drain).
  BigNat& operator+=(const BigNat& other) {
    uint64_t sum;
    if (limbs_.empty() && other.limbs_.empty() &&
        !__builtin_add_overflow(small_, other.small_, &sum)) {
      small_ = sum;
      return *this;
    }
    return *this = *this + other;
  }
  BigNat& operator*=(const BigNat& other) { return *this = *this * other; }

  bool operator==(const BigNat& o) const {
    return small_ == o.small_ && limbs_ == o.limbs_;
  }
  bool operator!=(const BigNat& o) const { return !(*this == o); }
  bool operator<(const BigNat& o) const { return Compare(o) < 0; }
  bool operator<=(const BigNat& o) const { return Compare(o) <= 0; }
  bool operator>(const BigNat& o) const { return Compare(o) > 0; }
  bool operator>=(const BigNat& o) const { return Compare(o) >= 0; }

  /// max / min, mirroring the maximal-union / intersection multiplicity
  /// arithmetic of the algebra.
  static const BigNat& Max(const BigNat& a, const BigNat& b) {
    return a >= b ? a : b;
  }
  static const BigNat& Min(const BigNat& a, const BigNat& b) {
    return a <= b ? a : b;
  }

  /// Hash suitable for unordered containers. Identical to hashing the
  /// value's 32-bit limb sequence, so it is representation-independent.
  size_t Hash() const;

  /// The number of 32-bit limbs the value occupies (0 for zero); exposed
  /// for size accounting.
  size_t LimbCount() const;

  /// Cumulative count of arithmetic operations that took the limb-vector
  /// slow path (process-wide; mirrored into the MetricsRegistry by the bag
  /// kernels).
  static uint64_t SlowPathOps();
  static void ResetSlowPathOps();

 private:
  /// Non-owning view of a value's limbs; `buf` backs inline values.
  struct LimbSpan {
    const uint32_t* data;
    size_t size;
  };
  LimbSpan Span(uint32_t (&buf)[2]) const;

  /// Wraps a raw limb vector: trims leading zeros and demotes to the inline
  /// form when the value fits uint64, restoring the canonical invariant.
  static BigNat FromLimbVector(std::vector<uint32_t> limbs);

  /// Moves the inline value into limbs_ (slow-path entry).
  void PromoteToLimbs();

  /// WriteDecimal of a value held in limbs (at least 2^64).
  char* WriteLimbsDecimal(char* dst) const;

  /// Divides in place by a small divisor, returning the remainder.
  uint32_t DivSmallInPlace(uint32_t divisor);
  /// Multiplies in place by small value and adds small addend.
  void MulAddSmallInPlace(uint32_t mul, uint32_t add);

  // Canonical invariant: limbs_ is empty iff the value is < 2^64, in which
  // case small_ holds it. Otherwise limbs_ is the little-endian 32-bit limb
  // form (>= 3 limbs, top limb nonzero) and small_ is 0.
  uint64_t small_ = 0;
  std::vector<uint32_t> limbs_;
};

/// Quotient/remainder pair returned by BigNat::DivMod.
struct BigNat::DivModResult {
  BigNat quotient;
  BigNat remainder;
};

std::ostream& operator<<(std::ostream& os, const BigNat& n);

}  // namespace bagalg

#endif  // BAGALG_UTIL_BIGNAT_H_
