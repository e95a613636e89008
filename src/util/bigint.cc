#include "src/util/bigint.h"

namespace bagalg {

BigInt::BigInt(int64_t v) {
  if (v < 0) {
    negative_ = true;
    // Avoid UB on INT64_MIN.
    magnitude_ = BigNat(static_cast<uint64_t>(-(v + 1)) + 1);
  } else {
    magnitude_ = BigNat(static_cast<uint64_t>(v));
  }
}

BigInt::BigInt(bool negative, BigNat magnitude)
    : negative_(negative && !magnitude.IsZero()),
      magnitude_(std::move(magnitude)) {}

Result<BigNat> BigInt::ToBigNat() const {
  if (negative_) {
    return Status::InvalidArgument("negative BigInt is not a BigNat");
  }
  return magnitude_;
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (negative_ == other.negative_) {
    return BigInt(negative_, magnitude_ + other.magnitude_);
  }
  int cmp = magnitude_.Compare(other.magnitude_);
  if (cmp == 0) return BigInt();
  if (cmp > 0) {
    return BigInt(negative_, magnitude_.MonusSub(other.magnitude_));
  }
  return BigInt(other.negative_, other.magnitude_.MonusSub(magnitude_));
}

BigInt BigInt::operator*(const BigInt& other) const {
  return BigInt(negative_ != other.negative_, magnitude_ * other.magnitude_);
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = magnitude_.Compare(other.magnitude_);
  return negative_ ? -mag : mag;
}

std::string BigInt::ToString() const {
  std::string out = negative_ ? "-" : "";
  out += magnitude_.ToString();
  return out;
}

std::ostream& operator<<(std::ostream& os, const BigInt& n) {
  return os << n.ToString();
}

}  // namespace bagalg
