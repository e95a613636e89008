#ifndef BAGALG_CORE_ATOM_H_
#define BAGALG_CORE_ATOM_H_

/// \file atom.h
/// Atomic constants of the paper's type U.
///
/// The domain of U is an infinite set of uninterpreted constants (paper §2).
/// bagalg represents a constant as an opaque 32-bit AtomId; the AtomTable
/// maps ids to printable names for I/O. Queries must be generic (insensitive
/// to isomorphisms of the database, §2), which the engine guarantees
/// structurally: no algebra operation ever inspects anything about an atom
/// other than its identity — names exist only at the I/O boundary.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bagalg {

/// Identity of an atomic constant.
using AtomId = uint32_t;

/// Bidirectional mapping between atom ids and their printable names.
///
/// Interning is append-only; ids are dense starting at 0. bagalgd parses
/// and prints statements for many sessions on several threads at once, and
/// they all share the global table, so every printed atom reads a name
/// while other threads may be interning. The table is built so that only
/// a writer ever waits:
///
///  - Each name is stored once, in fixed-capacity segments that never
///    move: segment k holds 64·2^k names, so id i lives at a fixed
///    address from the moment it is interned.
///  - A writer (Intern of a new name) takes the mutex, stores the name in
///    its segment, and publishes it with a release store of the count.
///    NameView loads the count with acquire and returns a view into the
///    segment: no lock, no copy, and the view stays valid for the table's
///    lifetime.
///  - The name→id index is an open-addressing hash of ids, compared by
///    their views into the segments, so lookups build no temporary
///    string. A writer fills a slot with a release store after the count;
///    when the index is half full it builds a doubled one and publishes
///    it whole. Older indexes stay alive (a reader may still be probing
///    one), so Find and Intern of a known name take no lock either.
class AtomTable {
 public:
  AtomTable();
  ~AtomTable();
  AtomTable(const AtomTable&) = delete;
  AtomTable& operator=(const AtomTable&) = delete;

  /// Returns the id for `name`, interning it on first use.
  AtomId Intern(std::string_view name);

  /// Returns the id for `name` if already interned. A name becomes
  /// visible to NameView and size() just before Find, so while another
  /// thread's Intern of it is finishing, Find may still miss it.
  std::optional<AtomId> Find(std::string_view name) const;

  /// The name of an interned id, read without a lock or a copy; nullopt
  /// if the id was never interned here. Inline: the printers call it once
  /// per atom cell.
  std::optional<std::string_view> NameView(AtomId id) const {
    if (id >= count_.load(std::memory_order_acquire)) return std::nullopt;
    return NameAt(id);
  }

  /// Returns the name of an id as a copy; "#<id>" if the id was never
  /// interned here (so printing never fails, even across tables).
  std::string NameOf(AtomId id) const;

  /// Number of interned atoms.
  size_t size() const;

 private:
  struct Index;

  /// 26 segments hold 64·(2^26 − 1) = 2^32 − 64 names: every id fits a
  /// uint32_t, and so does id + 1, the index's slot encoding.
  static constexpr size_t kSegments = 26;
  static constexpr size_t kFirstSegment = 64;

  /// Segment k starts at id 64·(2^k − 1): id + 64 = 64·2^k + offset.
  struct Location {
    size_t segment;
    size_t offset;
  };
  static Location Locate(size_t id) {
    const size_t biased = id + kFirstSegment;
    const size_t segment =
        static_cast<size_t>(std::bit_width(biased / kFirstSegment)) - 1;
    return {segment, biased - (kFirstSegment << segment)};
  }

  /// The name of an id known to be published (below an acquired count).
  std::string_view NameAt(size_t id) const {
    const Location at = Locate(id);
    return segments_[at.segment][at.offset];
  }
  /// Fills the first empty slot of `index` on `id`'s probe sequence.
  void Insert(Index* index, size_t id);

  std::mutex mu_;  // serializes writers; readers never take it
  std::atomic<size_t> count_{0};
  std::unique_ptr<std::string[]> segments_[kSegments];
  std::atomic<const Index*> index_;
  std::vector<std::unique_ptr<Index>> indexes_;  // every index published
};

/// Process-wide default table used by printers when none is supplied.
AtomTable& GlobalAtomTable();

/// Convenience: interns `name` in the global table.
AtomId GlobalAtom(std::string_view name);

}  // namespace bagalg

#endif  // BAGALG_CORE_ATOM_H_
