#ifndef BAGALG_ANALYSIS_POLYNOMIAL_H_
#define BAGALG_ANALYSIS_POLYNOMIAL_H_

/// \file polynomial.h
/// Integer polynomials in one variable.
///
/// The Proposition 4.1 claim attaches to every BALG¹ expression e and tuple
/// t a polynomial P_t with: for all large enough n, the count of t in
/// e(B_n) equals P_t(n), where B_n holds n copies of [a]. This module
/// provides the polynomial arithmetic the abstract interpreter needs, plus
/// the sequence tools (finite differences) used to check empirically that a
/// count function is — or, for bag-even, is *not* — eventually polynomial.

#include <string>
#include <vector>

#include "src/util/bigint.h"
#include "src/util/bignat.h"

namespace bagalg::analysis {

/// A polynomial with BigInt coefficients, coefficient i multiplying n^i.
/// Normalized: no trailing zero coefficients; the zero polynomial has no
/// coefficients.
class Polynomial {
 public:
  /// The zero polynomial.
  Polynomial() = default;
  /// From low-to-high coefficients.
  explicit Polynomial(std::vector<BigInt> coeffs);
  /// The constant c.
  static Polynomial Constant(BigInt c);
  /// The monomial c·n^k.
  static Polynomial Monomial(BigInt c, size_t k);
  /// The identity polynomial n.
  static Polynomial Identity();

  bool IsZero() const { return coeffs_.empty(); }
  /// Degree; 0 for constants and for the zero polynomial.
  size_t Degree() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }
  const std::vector<BigInt>& coefficients() const { return coeffs_; }
  /// Leading coefficient (zero for the zero polynomial).
  BigInt LeadingCoefficient() const;
  /// The constant term k0 (the coefficient Prop 4.1 tracks: k0 = 0 for
  /// tuples containing the fresh constant a).
  BigInt ConstantTerm() const;

  Polynomial operator+(const Polynomial& other) const;
  Polynomial operator-(const Polynomial& other) const;
  Polynomial operator*(const Polynomial& other) const;
  bool operator==(const Polynomial& o) const { return coeffs_ == o.coeffs_; }
  bool operator!=(const Polynomial& o) const { return !(*this == o); }

  /// Evaluates at the natural number n (Horner).
  BigInt Eval(const BigNat& n) const;

  /// True iff P(n) > 0 for all sufficiently large n.
  bool EventuallyPositive() const;

  /// An upper bound B such that P has no sign changes beyond B (Cauchy root
  /// bound, rounded up). Returns 0 for constants.
  BigNat RootBound() const;

  /// The least N such that the predicate "P(n) > 0" is constant for all
  /// n >= N (either always true or always false there).
  BigNat StablePositivityPoint() const;

  /// Rendering, e.g. "2n^2 + n - 3".
  std::string ToString() const;

 private:
  std::vector<BigInt> coeffs_;
};

/// Checks whether the integer sequence values[0..] (samples of f at
/// consecutive arguments) agrees with some polynomial of degree <= degree:
/// true iff the (degree+1)-th finite differences all vanish. Requires
/// values.size() >= degree + 2.
bool IsPolynomialSequence(const std::vector<BigInt>& values, size_t degree);

}  // namespace bagalg::analysis

#endif  // BAGALG_ANALYSIS_POLYNOMIAL_H_
