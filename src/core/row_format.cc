#include "src/core/row_format.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

#include "src/core/value.h"
#include "src/obs/json.h"
#include "src/util/strings.h"

namespace bagalg {

namespace {

/// Room for an entry separator and a count below 2^64 with its marks:
/// "*" and 20 digits (text), 20 digits and "\"}" (JSON), or a kind byte
/// and 8 bytes (BAG1).
constexpr size_t kSeparatorAndCountRoom = 32;

void PutU32Le(uint32_t v, char* dst) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

void PutU64Le(uint64_t v, char* dst) {
  PutU32Le(static_cast<uint32_t>(v & 0xFFFFFFFFu), dst);
  PutU32Le(static_cast<uint32_t>(v >> 32), dst + 4);
}

/// Writes into `out` past its size: the string is resized ahead of the
/// writes and trimmed to what was written on destruction. Between
/// Reserve(n) and the next Reserve, `p` may advance up to n bytes.
/// Capacity is reserved for the estimate up front, up to
/// kMaxGuessedReserveBytes, but the string is resized (which writes its
/// bytes) a step at a time, so pages the rows never reach are never
/// touched; past the reserve it grows as std::string does, geometrically.
struct Cursor {
  Cursor(std::string* s, size_t estimate)
      : out(s), p(s->data() + s->size()), limit(p) {
    out->reserve(out->size() + std::min(estimate, kMaxGuessedReserveBytes));
    p = out->data() + out->size();
    limit = p;
  }
  ~Cursor() { out->resize(size()); }
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  size_t size() const { return static_cast<size_t>(p - out->data()); }
  void Reserve(size_t n) {
    if (static_cast<size_t>(limit - p) < n) Grow(n);
  }
  void Put(const char* bytes, size_t n) { p = CopyBytes(p, bytes, n); }

 private:
  static constexpr size_t kStep = 4096;
  // Takes no `this`, so the cursor's address never escapes and `p` and
  // `limit` can live in registers across the row loop's byte stores.
  static void Resize(std::string* out, size_t used, size_t n) {
    out->resize(used + std::max(n, kStep));
  }
  void Grow(size_t n) {
    const size_t used = size();
    Resize(out, used, n);
    p = out->data() + used;
    limit = out->data() + out->size();
  }

 public:
  std::string* out;
  char* p;
  char* limit;
};

/// An atom's name, or "#<id>" in `buf` for an id `table` never interned.
std::string_view AtomName(AtomId id, const AtomTable& table, char (&buf)[12]) {
  if (const auto name = table.NameView(id)) return *name;
  buf[0] = '#';
  const char* end = std::to_chars(buf + 1, buf + sizeof(buf), id).ptr;
  return {buf, static_cast<size_t>(end - buf)};
}

/// What goes between two entries.
constexpr std::string_view Separator(RowSyntax syntax) {
  switch (syntax) {
    case RowSyntax::kText:
      return ", ";
    case RowSyntax::kWireJson:
      return ",";
    case RowSyntax::kBag1:
      break;
  }
  return "";
}

/// The most bytes `name` takes in the syntax.
template <RowSyntax kSyntax>
size_t NameRoom(std::string_view name) {
  switch (kSyntax) {
    case RowSyntax::kText:
      return name.size();
    case RowSyntax::kWireJson:
      return name.size() * obs::kMaxJsonEscapeBytes;
    case RowSyntax::kBag1:
      return 4 + name.size();
  }
  return 0;
}

template <RowSyntax kSyntax>
char* WriteName(char* dst, std::string_view name) {
  switch (kSyntax) {
    case RowSyntax::kText:
      break;
    case RowSyntax::kWireJson:
      return obs::WriteJsonEscaped(dst, name);
    case RowSyntax::kBag1:
      PutU32Le(static_cast<uint32_t>(name.size()), dst);
      dst += 4;
      break;
  }
  return CopyBytes(dst, name.data(), name.size());
}

/// Writes `count` and what follows it in the syntax. A count below 2^64
/// fits kSeparatorAndCountRoom; a longer one reserves its own room.
template <RowSyntax kSyntax>
void WriteCount(const Mult& count, Cursor& cur) {
  if (!count.FitsUint64()) cur.Reserve(count.MaxDecimalDigits() + 8);
  switch (kSyntax) {
    case RowSyntax::kText:
      if (!count.IsOne()) {
        *cur.p++ = '*';
        cur.p = count.WriteDecimal(cur.p);
      }
      return;
    case RowSyntax::kWireJson:
      cur.p = count.WriteDecimal(cur.p);
      cur.Put("\"}", 2);
      return;
    case RowSyntax::kBag1:
      // mult := 0x00 u64 | 0x01 str(decimal), as wire.h has it; the
      // decimal is written in place and its length put before it.
      if (count.FitsUint64()) {
        *cur.p++ = '\x00';
        PutU64Le(count.Low64(), cur.p);
        cur.p += 8;
      } else {
        *cur.p++ = '\x01';
        char* digits = cur.p + 4;
        cur.p = count.WriteDecimal(digits);
        PutU32Le(static_cast<uint32_t>(cur.p - digits), digits - 4);
      }
      return;
  }
}

/// The bytes WriteCount writes for `count` (an upper bound past 2^64).
size_t CountBytes(RowSyntax syntax, const Mult& count) {
  if (syntax == RowSyntax::kBag1 && count.FitsUint64()) return 9;
  if (syntax == RowSyntax::kText && count.IsOne()) return 0;
  char digits[20];
  const size_t n =
      count.FitsUint64()
          ? static_cast<size_t>(count.WriteDecimal(digits) - digits)
          : count.MaxDecimalDigits();
  switch (syntax) {
    case RowSyntax::kText:
      return 1 + n;  // "*" n
    case RowSyntax::kWireJson:
      return n + 2;  // n "\"}"
    case RowSyntax::kBag1:
      return 5 + n;  // 0x01 u32(n) n
  }
  return n;
}

}  // namespace

RowFormat::RowFormat(const Type& element_type, RowSyntax syntax)
    : element_type_(element_type), syntax_(syntax) {
  // Sized once: small results pay for compiling their format too.
  const size_t cells = CellWidth(element_type_);
  ends_.reserve(cells + 1);
  pieces_.reserve(16 + 16 * cells);
  if (syntax_ == RowSyntax::kWireJson) pieces_.append("{\"v\":");
  Compile(element_type_);
  if (syntax_ == RowSyntax::kWireJson) pieces_.append(",\"n\":\"");
  ends_.push_back(static_cast<uint32_t>(pieces_.size()));
  width_ = ends_.size() - 1;
}

void RowFormat::Compile(const Type& type) {
  if (type.IsAtom()) {
    switch (syntax_) {
      case RowSyntax::kText:
        break;
      case RowSyntax::kWireJson:
        pieces_.append("{\"atom\":\"");
        break;
      case RowSyntax::kBag1:
        pieces_.push_back('\x01');
        break;
    }
    ends_.push_back(static_cast<uint32_t>(pieces_.size()));
    if (syntax_ == RowSyntax::kWireJson) pieces_.append("\"}");
    return;
  }
  if (!type.IsTuple()) return;  // Bottom: the element type of no rows
  const std::vector<Type>& fields = type.fields();
  switch (syntax_) {
    case RowSyntax::kText:
      pieces_.push_back('[');
      break;
    case RowSyntax::kWireJson:
      pieces_.append("{\"tuple\":[");
      break;
    case RowSyntax::kBag1: {
      char arity[4];
      PutU32Le(static_cast<uint32_t>(fields.size()), arity);
      pieces_.push_back('\x02');
      pieces_.append(arity, sizeof(arity));
      break;
    }
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0 && syntax_ == RowSyntax::kText) pieces_.append(", ");
    if (i != 0 && syntax_ == RowSyntax::kWireJson) pieces_.push_back(',');
    Compile(fields[i]);
  }
  if (syntax_ == RowSyntax::kText) pieces_.push_back(']');
  if (syntax_ == RowSyntax::kWireJson) pieces_.append("]}");
}

size_t RowFormat::EntryBytes(const FlatRows& rows, size_t i,
                             const AtomTable& table) const {
  size_t bytes = pieces_.size() + 2;  // the separator, at most
  const AtomId* row = rows.row(i);
  for (size_t k = 0; k < width_; ++k) {
    char buf[12];
    bytes += AtomName(row[k], table, buf).size();
    if (syntax_ == RowSyntax::kBag1) bytes += 4;
  }
  return bytes + CountBytes(syntax_, rows.counts[i]);
}

size_t RowFormat::EstimateBytes(const FlatRows& rows,
                                const AtomTable& table) const {
  if (rows.empty()) return 0;
  return rows.size() * EntryBytes(rows, 0, table);
}

template <RowSyntax kSyntax>
size_t RowFormat::AppendAs(const FlatRows& rows, size_t begin, size_t end,
                           const AtomTable& table, std::string* out,
                           size_t stop_size) const {
  if (out->size() >= stop_size) return begin;
  // Capacity for the entries this call can write, as the first one sizes
  // them.
  const size_t entry = EntryBytes(rows, begin, table);
  Cursor cur(out,
             std::min(end - begin, (stop_size - out->size()) / entry + 1) *
                 entry);
  constexpr std::string_view kSep = Separator(kSyntax);
  // Locals, not members: every byte store may alias a member, which the
  // compiler would then load again.
  const char* const pieces = pieces_.data();
  const size_t last_piece = pieces_.size();
  const uint32_t* const ends = ends_.data();
  const size_t width = width_;
  const AtomId* const cells = rows.cells.data();
  const size_t stride = rows.width;
  const Mult* const counts = rows.counts.data();
  for (size_t i = begin; i < end; ++i) {
    if (cur.size() >= stop_size) return i;
    const AtomId* row = cells + i * stride;
    cur.Reserve(kSep.size() + last_piece + kSeparatorAndCountRoom);
    if (i != 0) cur.Put(kSep.data(), kSep.size());
    uint32_t from = 0;
    for (size_t k = 0; k < width; ++k) {
      const uint32_t to = ends[k];
      cur.Put(pieces + from, to - from);
      from = to;
      char buf[12];
      const std::string_view name = AtomName(row[k], table, buf);
      // This name, then the rest of the pieces and the count.
      cur.Reserve(NameRoom<kSyntax>(name) + (last_piece - to) +
                  kSeparatorAndCountRoom);
      cur.p = WriteName<kSyntax>(cur.p, name);
    }
    cur.Put(pieces + from, last_piece - from);
    WriteCount<kSyntax>(counts[i], cur);
  }
  return end;
}

size_t RowFormat::Append(const FlatRows& rows, size_t begin, size_t end,
                         const AtomTable& table, std::string* out,
                         size_t stop_size) const {
  if (begin >= end) return end;
  switch (syntax_) {
    case RowSyntax::kText:
      return AppendAs<RowSyntax::kText>(rows, begin, end, table, out,
                                        stop_size);
    case RowSyntax::kWireJson:
      return AppendAs<RowSyntax::kWireJson>(rows, begin, end, table, out,
                                            stop_size);
    case RowSyntax::kBag1:
      return AppendAs<RowSyntax::kBag1>(rows, begin, end, table, out,
                                        stop_size);
  }
  return begin;
}

const RowFormat& RowFormatCache::For(const Type& element_type) {
  if (!last_.has_value() || !(last_->element_type() == element_type)) {
    last_.emplace(element_type, syntax_);
  }
  return *last_;
}

}  // namespace bagalg
