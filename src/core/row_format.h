#ifndef BAGALG_CORE_ROW_FORMAT_H_
#define BAGALG_CORE_ROW_FORMAT_H_

/// \file row_format.h
/// Row formats: the one writer behind every printed form of a flat bag.
///
/// The entries of a flat bag all share one shape (flat_rows.h), so how a
/// format spells an entry's structure is the same for every row: only the
/// atom names and the count change. A RowFormat compiles the element type
/// once into the literal pieces that surround each atom cell, for one of
/// three syntaxes (the REPL text, the wire JSON and BAG1 of src/net/wire.h),
/// and its row loop copies pieces, names and the count into one pre-grown
/// buffer. For a bag of [U, U] pairs the pieces are
///
///   text   "["  a  ", "  b  "]"                       then "*" count if not 1
///   JSON   "{\"v\":{\"tuple\":[{\"atom\":\""  a  "\"},{\"atom\":\""  b
///          "\"}]},\"n\":\""                           then count "\"}"
///   BAG1   "\x02" u32(2) "\x01"  str(a)  "\x01"  str(b)  then the count
///
/// with ", " (text) or "," (JSON) between entries. Atom names go through
/// the format's own escaping: JSON escapes them, BAG1 prefixes their
/// length. An id the table never interned prints as "#<id>", as
/// AtomTable::NameOf has it. The bytes are those of the Value printers for
/// the entries' Values.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/core/atom.h"
#include "src/core/flat_rows.h"
#include "src/core/type.h"

namespace bagalg {

/// The most capacity a guessed size reserves up front. Guesses come from
/// the first row, which a client picks (rows sort by atom id, and a name
/// may be as long as a request), so one long first name before many short
/// rows would ask for far more than the body takes; past this much, a
/// buffer grows from the bytes actually written.
inline constexpr size_t kMaxGuessedReserveBytes = size_t{1} << 20;

enum class RowSyntax : uint8_t {
  kText,      // Value::ToString
  kWireJson,  // ValueToWireJson
  kBag1,      // ValueToWireBinary
};

class RowFormat {
 public:
  /// Compiles `element_type`, which must hold no bag, for `syntax`.
  RowFormat(const Type& element_type, RowSyntax syntax);

  const Type& element_type() const { return element_type_; }

  /// Appends entries [begin, end) of `rows`, canonical rows of the
  /// compiled type, to `out`. Every entry but entry 0 of the bag starts
  /// with the entry separator. Before each entry, if `out` already holds
  /// `stop_size` bytes or more, stops there. Returns the index of the first
  /// entry not written: `end` unless it stopped.
  size_t Append(const FlatRows& rows, size_t begin, size_t end,
                const AtomTable& table, std::string* out,
                size_t stop_size = std::numeric_limits<size_t>::max()) const;

  /// About how many bytes Append writes for all of `rows`: their number
  /// times the size of the first. Guesses the digit count of a length
  /// written before the bytes it counts, and sizes buffers up to
  /// kMaxGuessedReserveBytes.
  size_t EstimateBytes(const FlatRows& rows, const AtomTable& table) const;

 private:
  void Compile(const Type& type);
  /// The bytes entry `i` of `rows` takes (less any JSON escapes).
  size_t EntryBytes(const FlatRows& rows, size_t i,
                    const AtomTable& table) const;
  template <RowSyntax kSyntax>
  size_t AppendAs(const FlatRows& rows, size_t begin, size_t end,
                  const AtomTable& table, std::string* out,
                  size_t stop_size) const;

  Type element_type_;
  RowSyntax syntax_;
  size_t width_ = 0;
  // Pieces 0..width_, concatenated: piece k ends at ends_[k] and is
  // followed by cell k's name (piece width_ by the count).
  std::string pieces_;
  std::vector<uint32_t> ends_;
};

/// The last RowFormat compiled, reused while the element type repeats:
/// the inner bags of a bag of bags (a powerset's subbags) mostly share one.
class RowFormatCache {
 public:
  explicit RowFormatCache(RowSyntax syntax) : syntax_(syntax) {}

  const RowFormat& For(const Type& element_type);

 private:
  RowSyntax syntax_;
  std::optional<RowFormat> last_;
};

}  // namespace bagalg

#endif  // BAGALG_CORE_ROW_FORMAT_H_
