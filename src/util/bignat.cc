#include "src/util/bignat.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>

#include "src/util/governor.h"

namespace bagalg {

namespace {

constexpr uint64_t kLimbBase = uint64_t{1} << 32;

std::atomic<uint64_t> g_slow_path_ops{0};

void CountSlowPath() {
  g_slow_path_ops.fetch_add(1, std::memory_order_relaxed);
}

uint32_t Lo32(uint64_t v) { return static_cast<uint32_t>(v & 0xffffffffu); }
uint32_t Hi32(uint64_t v) { return static_cast<uint32_t>(v >> 32); }

size_t HashLimb(size_t h, uint32_t limb) {
  return h ^ (limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// a <=> b over raw normalized limb vectors.
int CompareVec(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// a *= 2 over a raw limb vector (used by the long division).
void ShiftLeft1InPlace(std::vector<uint32_t>& v) {
  uint32_t carry = 0;
  for (uint32_t& limb : v) {
    uint32_t next_carry = limb >> 31;
    limb = (limb << 1) | carry;
    carry = next_carry;
  }
  if (carry != 0) v.push_back(carry);
}

/// a -= b over raw limb vectors; requires a >= b. Trims leading zeros.
void SubVecInPlace(std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t cur = static_cast<int64_t>(a[i]) - borrow;
    if (i < b.size()) cur -= b[i];
    if (cur < 0) {
      cur += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    a[i] = static_cast<uint32_t>(cur);
  }
  assert(borrow == 0);
  while (!a.empty() && a.back() == 0) a.pop_back();
}

}  // namespace

uint64_t BigNat::SlowPathOps() {
  return g_slow_path_ops.load(std::memory_order_relaxed);
}

void BigNat::ResetSlowPathOps() {
  g_slow_path_ops.store(0, std::memory_order_relaxed);
}

BigNat::LimbSpan BigNat::Span(uint32_t (&buf)[2]) const {
  if (!limbs_.empty()) return LimbSpan{limbs_.data(), limbs_.size()};
  buf[0] = Lo32(small_);
  buf[1] = Hi32(small_);
  size_t n = small_ == 0 ? 0 : (buf[1] != 0 ? 2 : 1);
  return LimbSpan{buf, n};
}

BigNat BigNat::FromLimbVector(std::vector<uint32_t> limbs) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  BigNat out;
  if (limbs.size() <= 2) {
    uint64_t v = 0;
    if (limbs.size() >= 1) v |= limbs[0];
    if (limbs.size() == 2) v |= uint64_t{limbs[1]} << 32;
    out.small_ = v;
  } else {
    // Only limb-backed values consume heap; the small_ fast path is free.
    // This is where powerbag multiplicities (binomials, 2^n counts) grow,
    // so it is the one BigNat site the memory cap must see.
    GovernorAccountBytes(limbs.capacity() * sizeof(uint32_t));
    out.limbs_ = std::move(limbs);
  }
  return out;
}

void BigNat::PromoteToLimbs() {
  assert(limbs_.empty());
  if (small_ != 0) {
    limbs_.push_back(Lo32(small_));
    uint32_t hi = Hi32(small_);
    if (hi != 0) limbs_.push_back(hi);
  }
  small_ = 0;
  GovernorAccountBytes(limbs_.capacity() * sizeof(uint32_t));
}

Result<BigNat> BigNat::FromDecimal(std::string_view text) {
  if (text.empty()) {
    return Status::ParseError("empty string is not a decimal number");
  }
  BigNat out;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::ParseError(std::string("invalid decimal digit '") + c +
                                "'");
    }
    out.MulAddSmallInPlace(10, static_cast<uint32_t>(c - '0'));
  }
  return out;
}

BigNat BigNat::TwoPow(uint64_t exp) {
  if (exp < 64) return BigNat(uint64_t{1} << exp);
  BigNat out;
  size_t limb = static_cast<size_t>(exp / 32);
  unsigned bit = static_cast<unsigned>(exp % 32);
  out.limbs_.assign(limb + 1, 0);
  out.limbs_[limb] = uint32_t{1} << bit;
  return out;
}

BigNat BigNat::Pow(const BigNat& base, uint64_t exp) {
  BigNat result(1);
  BigNat b = base;
  while (exp > 0) {
    if (exp & 1) result *= b;
    b *= b;
    exp >>= 1;
  }
  return result;
}

size_t BigNat::BitLength() const {
  if (limbs_.empty()) return std::bit_width(small_);
  return (limbs_.size() - 1) * 32 +
         static_cast<size_t>(std::bit_width(limbs_.back()));
}

size_t BigNat::DecimalDigits() const { return ToString().size(); }

size_t BigNat::LimbCount() const {
  if (!limbs_.empty()) return limbs_.size();
  return small_ == 0 ? 0 : (Hi32(small_) != 0 ? 2 : 1);
}

Result<uint64_t> BigNat::ToUint64() const {
  if (!limbs_.empty()) {
    return Status::InvalidArgument("BigNat value exceeds uint64 range");
  }
  return small_;
}

double BigNat::ToDouble() const {
  if (limbs_.empty()) return static_cast<double>(small_);
  double v = 0.0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    v = v * static_cast<double>(kLimbBase) + static_cast<double>(*it);
  }
  return v;
}

void BigNat::MulAddSmallInPlace(uint32_t mul, uint32_t add) {
  if (limbs_.empty()) {
    unsigned __int128 cur =
        static_cast<unsigned __int128>(small_) * mul + add;
    if (static_cast<uint64_t>(cur >> 64) == 0) {
      small_ = static_cast<uint64_t>(cur);
      return;
    }
    CountSlowPath();
    PromoteToLimbs();
  }
  uint64_t carry = add;
  for (uint32_t& limb : limbs_) {
    uint64_t cur = uint64_t{limb} * mul + carry;
    limb = Lo32(cur);
    carry = cur >> 32;
  }
  while (carry != 0) {
    limbs_.push_back(Lo32(carry));
    carry >>= 32;
  }
  *this = FromLimbVector(std::move(limbs_));
}

uint32_t BigNat::DivSmallInPlace(uint32_t divisor) {
  assert(divisor != 0);
  if (limbs_.empty()) {
    uint32_t rem = static_cast<uint32_t>(small_ % divisor);
    small_ /= divisor;
    return rem;
  }
  uint64_t rem = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    uint64_t cur = (rem << 32) | limbs_[i];
    limbs_[i] = static_cast<uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  *this = FromLimbVector(std::move(limbs_));
  return static_cast<uint32_t>(rem);
}

namespace {

constexpr uint64_t kTen19 = 10000000000000000000ull;

/// Writes `v` (below 10^19) as exactly 19 digits, zero-padded, two
/// digits per step.
char* WriteDigits19(uint64_t v, char* dst) {
  static constexpr char kPairs[] =
      "00010203040506070809101112131415161718192021222324252627282930313233"
      "34353637383940414243444546474849505152535455565758596061626364656667"
      "6869707172737475767778798081828384858687888990919293949596979899";
  for (int i = 17; i > 0; i -= 2) {
    const uint64_t pair = v % 100;
    v /= 100;
    dst[i] = kPairs[2 * pair];
    dst[i + 1] = kPairs[2 * pair + 1];
  }
  dst[0] = static_cast<char>('0' + v);
  return dst + 19;
}

}  // namespace

char* BigNat::WriteLimbsDecimal(char* dst) const {
  if (limbs_.size() <= 4) {
    // 2^64 <= v < 2^128 < 4 * 10^38: v = (hi * 10^19 + mid) * 10^19 + lo
    // with hi < 4, and mid nonzero whenever hi is zero.
    unsigned __int128 v = 0;
    for (size_t i = limbs_.size(); i-- > 0;) v = (v << 32) | limbs_[i];
    unsigned __int128 upper = v / kTen19;  // below 2^65
    const auto lo = static_cast<uint64_t>(v - upper * kTen19);
    uint64_t hi = 0;
    while (upper >= kTen19) {
      upper -= kTen19;
      ++hi;
    }
    const auto mid = static_cast<uint64_t>(upper);
    if (hi != 0) {
      *dst++ = static_cast<char>('0' + hi);
      dst = WriteDigits19(mid, dst);
    } else {
      dst = std::to_chars(dst, dst + 20, mid).ptr;
    }
    return WriteDigits19(lo, dst);
  }
  // Pairs of limbs as 64-bit words, most significant last; each pass
  // divides them by 10^19 (every partial quotient fits 64 bits, since the
  // running remainder is below 10^19) and keeps the remainder as the next
  // 19 digits, least significant first.
  std::vector<uint64_t> words((limbs_.size() + 1) / 2);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    words[i / 2] |= static_cast<uint64_t>(limbs_[i]) << (32 * (i % 2));
  }
  std::vector<uint64_t> chunks;
  chunks.reserve(limbs_.size() * 32 / 63 + 1);
  while (!words.empty()) {
    unsigned __int128 rem = 0;
    for (size_t i = words.size(); i-- > 0;) {
      const unsigned __int128 cur = (rem << 64) | words[i];
      words[i] = static_cast<uint64_t>(cur / kTen19);
      rem = cur % kTen19;
    }
    chunks.push_back(static_cast<uint64_t>(rem));
    while (!words.empty() && words.back() == 0) words.pop_back();
  }
  dst = std::to_chars(dst, dst + 20, chunks.back()).ptr;
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    dst = WriteDigits19(chunks[i], dst);
  }
  return dst;
}

std::string BigNat::ToString() const {
  std::string out;
  AppendDecimal(&out);
  return out;
}

void BigNat::AppendDecimal(std::string* out) const {
  if (limbs_.empty()) {
    char digits[20];  // 2^64 - 1 has 20 decimal digits
    const char* end = WriteDecimal(digits);
    out->append(digits, static_cast<size_t>(end - digits));
    return;
  }
  const size_t start = out->size();
  out->resize(start + MaxDecimalDigits());
  const char* end = WriteLimbsDecimal(out->data() + start);
  out->resize(static_cast<size_t>(end - out->data()));
}

int BigNat::Compare(const BigNat& other) const {
  const bool a_small = limbs_.empty();
  const bool b_small = other.limbs_.empty();
  if (a_small && b_small) {
    if (small_ != other.small_) return small_ < other.small_ ? -1 : 1;
    return 0;
  }
  // A limb form is always >= 2^64, an inline form always < 2^64.
  if (a_small) return -1;
  if (b_small) return 1;
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigNat BigNat::operator+(const BigNat& other) const {
  if (limbs_.empty() && other.limbs_.empty()) {
    uint64_t sum;
    if (!__builtin_add_overflow(small_, other.small_, &sum)) {
      return BigNat(sum);
    }
    // Overflowed exactly once: the result is 2^64 + (wrapped sum).
    BigNat out;
    out.limbs_ = {Lo32(sum), Hi32(sum), 1u};
    return out;
  }
  CountSlowPath();
  uint32_t abuf[2], bbuf[2];
  LimbSpan a = Span(abuf);
  LimbSpan b = other.Span(bbuf);
  std::vector<uint32_t> out;
  size_t n = std::max(a.size, b.size);
  out.reserve(n + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t cur = carry;
    if (i < a.size) cur += a.data[i];
    if (i < b.size) cur += b.data[i];
    out.push_back(Lo32(cur));
    carry = cur >> 32;
  }
  if (carry != 0) out.push_back(static_cast<uint32_t>(carry));
  return FromLimbVector(std::move(out));
}

BigNat BigNat::MonusSub(const BigNat& other) const {
  if (limbs_.empty() && other.limbs_.empty()) {
    return BigNat(small_ >= other.small_ ? small_ - other.small_ : 0);
  }
  if (*this <= other) return BigNat();
  auto r = CheckedSub(other);
  assert(r.ok());
  return std::move(r).value();
}

Result<BigNat> BigNat::CheckedSub(const BigNat& other) const {
  if (limbs_.empty() && other.limbs_.empty()) {
    if (small_ < other.small_) {
      return Status::InvalidArgument("BigNat subtraction underflow");
    }
    return BigNat(small_ - other.small_);
  }
  if (*this < other) {
    return Status::InvalidArgument("BigNat subtraction underflow");
  }
  CountSlowPath();
  uint32_t abuf[2], bbuf[2];
  LimbSpan a = Span(abuf);
  LimbSpan b = other.Span(bbuf);
  std::vector<uint32_t> out;
  out.reserve(a.size);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size; ++i) {
    int64_t cur = static_cast<int64_t>(a.data[i]) - borrow;
    if (i < b.size) cur -= b.data[i];
    if (cur < 0) {
      cur += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(cur));
  }
  assert(borrow == 0);
  return FromLimbVector(std::move(out));
}

BigNat BigNat::operator*(const BigNat& other) const {
  if (limbs_.empty() && other.limbs_.empty()) {
    unsigned __int128 p =
        static_cast<unsigned __int128>(small_) * other.small_;
    uint64_t hi = static_cast<uint64_t>(p >> 64);
    if (hi == 0) return BigNat(static_cast<uint64_t>(p));
    uint64_t lo = static_cast<uint64_t>(p);
    BigNat out;
    out.limbs_ = {Lo32(lo), Hi32(lo), Lo32(hi), Hi32(hi)};
    while (out.limbs_.back() == 0) out.limbs_.pop_back();
    return out;
  }
  if (IsZero() || other.IsZero()) return BigNat();
  CountSlowPath();
  uint32_t abuf[2], bbuf[2];
  LimbSpan a = Span(abuf);
  LimbSpan b = other.Span(bbuf);
  std::vector<uint32_t> out(a.size + b.size, 0);
  for (size_t i = 0; i < a.size; ++i) {
    uint64_t carry = 0;
    uint64_t av = a.data[i];
    for (size_t j = 0; j < b.size; ++j) {
      uint64_t cur = out[i + j] + av * b.data[j] + carry;
      out[i + j] = Lo32(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.size;
    while (carry != 0) {
      uint64_t cur = out[k] + carry;
      out[k] = Lo32(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return FromLimbVector(std::move(out));
}

Result<BigNat::DivModResult> BigNat::DivMod(const BigNat& divisor) const {
  if (divisor.IsZero()) {
    return Status::InvalidArgument("BigNat division by zero");
  }
  if (limbs_.empty() && divisor.limbs_.empty()) {
    return DivModResult{BigNat(small_ / divisor.small_),
                        BigNat(small_ % divisor.small_)};
  }
  if (*this < divisor) {
    return DivModResult{BigNat(), *this};
  }
  CountSlowPath();
  // Dividend is on the heap here (the inline case with an inline divisor
  // was handled above, and dividend >= divisor).
  if (divisor.limbs_.empty() && Hi32(divisor.small_) == 0) {
    BigNat q = *this;
    uint32_t r = q.DivSmallInPlace(static_cast<uint32_t>(divisor.small_));
    return DivModResult{std::move(q), BigNat(r)};
  }
  // Binary long division: adequate for the limb counts bagalg reaches
  // (division only appears in aggregate averages and encodings).
  uint32_t dbuf[2];
  LimbSpan dv = divisor.Span(dbuf);
  std::vector<uint32_t> div_vec(dv.data, dv.data + dv.size);
  std::vector<uint32_t> rem;
  size_t bits = BitLength();
  std::vector<uint32_t> quot((bits + 31) / 32, 0);
  for (size_t i = bits; i-- > 0;) {
    ShiftLeft1InPlace(rem);
    uint32_t bit = (limbs_[i / 32] >> (i % 32)) & 1u;
    if (bit) {
      if (rem.empty()) rem.push_back(0);
      rem[0] |= 1u;
    }
    if (CompareVec(rem, div_vec) >= 0) {
      SubVecInPlace(rem, div_vec);
      quot[i / 32] |= uint32_t{1} << (i % 32);
    }
  }
  return DivModResult{FromLimbVector(std::move(quot)),
                      FromLimbVector(std::move(rem))};
}

size_t BigNat::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ull;
  if (limbs_.empty()) {
    if (small_ == 0) return h;
    h = HashLimb(h, Lo32(small_));
    if (Hi32(small_) != 0) h = HashLimb(h, Hi32(small_));
    return h;
  }
  for (uint32_t limb : limbs_) h = HashLimb(h, limb);
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigNat& n) {
  return os << n.ToString();
}

}  // namespace bagalg
