#include "src/analysis/polynomial.h"

#include <sstream>

namespace bagalg::analysis {

namespace {

void Normalize(std::vector<BigInt>* coeffs) {
  while (!coeffs->empty() && coeffs->back().IsZero()) coeffs->pop_back();
}

}  // namespace

Polynomial::Polynomial(std::vector<BigInt> coeffs)
    : coeffs_(std::move(coeffs)) {
  Normalize(&coeffs_);
}

Polynomial Polynomial::Constant(BigInt c) {
  return Polynomial(std::vector<BigInt>{std::move(c)});
}

Polynomial Polynomial::Monomial(BigInt c, size_t k) {
  std::vector<BigInt> coeffs(k + 1, BigInt(0));
  coeffs[k] = std::move(c);
  return Polynomial(std::move(coeffs));
}

Polynomial Polynomial::Identity() { return Monomial(BigInt(1), 1); }

BigInt Polynomial::LeadingCoefficient() const {
  return coeffs_.empty() ? BigInt(0) : coeffs_.back();
}

BigInt Polynomial::ConstantTerm() const {
  return coeffs_.empty() ? BigInt(0) : coeffs_.front();
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  std::vector<BigInt> out(std::max(coeffs_.size(), other.coeffs_.size()),
                          BigInt(0));
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] += coeffs_[i];
  for (size_t i = 0; i < other.coeffs_.size(); ++i) out[i] += other.coeffs_[i];
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator-(const Polynomial& other) const {
  std::vector<BigInt> out(std::max(coeffs_.size(), other.coeffs_.size()),
                          BigInt(0));
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] += coeffs_[i];
  for (size_t i = 0; i < other.coeffs_.size(); ++i) out[i] -= other.coeffs_[i];
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  if (IsZero() || other.IsZero()) return Polynomial();
  std::vector<BigInt> out(coeffs_.size() + other.coeffs_.size() - 1,
                          BigInt(0));
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    for (size_t j = 0; j < other.coeffs_.size(); ++j) {
      out[i + j] += coeffs_[i] * other.coeffs_[j];
    }
  }
  return Polynomial(std::move(out));
}

BigInt Polynomial::Eval(const BigNat& n) const {
  BigInt acc(0);
  BigInt x(n);
  for (size_t i = coeffs_.size(); i-- > 0;) {
    acc = acc * x + coeffs_[i];
  }
  return acc;
}

bool Polynomial::EventuallyPositive() const {
  return LeadingCoefficient().IsPositive();
}

BigNat Polynomial::RootBound() const {
  if (coeffs_.size() <= 1) return BigNat(0);
  // Cauchy: all real roots lie within 1 + max |c_i| / |c_lead|. Integer
  // over-approximation: 2 + max|c_i| (since |c_lead| >= 1 for integers).
  BigNat max_mag;
  for (const BigInt& c : coeffs_) {
    if (c.magnitude() > max_mag) max_mag = c.magnitude();
  }
  return max_mag + BigNat(2);
}

BigNat Polynomial::StablePositivityPoint() const {
  if (IsZero()) return BigNat(0);
  // Beyond the root bound the sign equals the leading coefficient's sign;
  // walk backwards from the bound to find the earliest stable point.
  BigNat bound = RootBound();
  bool sign_at_infinity = LeadingCoefficient().IsPositive();
  BigNat n = bound;
  while (!n.IsZero()) {
    BigNat prev = n.MonusSub(BigNat(1));
    bool positive = Eval(prev).IsPositive();
    if (positive != sign_at_infinity) return n;
    n = std::move(prev);
  }
  return BigNat(0);
}

std::string Polynomial::ToString() const {
  if (coeffs_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    const BigInt& c = coeffs_[i];
    if (c.IsZero()) continue;
    if (!first) os << (c.IsNegative() ? " - " : " + ");
    if (first && c.IsNegative()) os << "-";
    first = false;
    BigNat mag = c.magnitude();
    if (!mag.IsOne() || i == 0) os << mag.ToString();
    if (i >= 1) os << "n";
    if (i >= 2) os << "^" << i;
  }
  return os.str();
}

bool IsPolynomialSequence(const std::vector<BigInt>& values, size_t degree) {
  if (values.size() < degree + 2) return false;
  std::vector<BigInt> diff = values;
  for (size_t round = 0; round <= degree; ++round) {
    for (size_t i = 0; i + 1 < diff.size(); ++i) {
      diff[i] = diff[i + 1] - diff[i];
    }
    diff.pop_back();
  }
  for (const BigInt& d : diff) {
    if (!d.IsZero()) return false;
  }
  return true;
}

}  // namespace bagalg::analysis
