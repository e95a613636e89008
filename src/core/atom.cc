#include "src/core/atom.h"

#include <cstdlib>
#include <functional>

namespace bagalg {

namespace {

constexpr size_t kFirstIndexSlots = 128;

size_t HashName(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

/// Linear-probing slots holding id + 1; 0 marks an empty slot. Slots only
/// go from empty to full, so a reader's probe ends at the first empty one.
struct AtomTable::Index {
  explicit Index(size_t capacity)
      : mask(capacity - 1),
        slots(std::make_unique<std::atomic<uint32_t>[]>(capacity)) {}
  size_t mask;
  std::unique_ptr<std::atomic<uint32_t>[]> slots;
};

AtomTable::AtomTable() {
  indexes_.push_back(std::make_unique<Index>(kFirstIndexSlots));
  index_.store(indexes_.back().get(), std::memory_order_release);
}

AtomTable::~AtomTable() = default;

void AtomTable::Insert(Index* index, size_t id) {
  size_t i = HashName(NameAt(id)) & index->mask;
  while (index->slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & index->mask;
  }
  index->slots[i].store(static_cast<uint32_t>(id + 1),
                        std::memory_order_release);
}

std::optional<AtomId> AtomTable::Find(std::string_view name) const {
  const Index* index = index_.load(std::memory_order_acquire);
  for (size_t i = HashName(name) & index->mask;; i = (i + 1) & index->mask) {
    const uint32_t slot = index->slots[i].load(std::memory_order_acquire);
    if (slot == 0) return std::nullopt;
    if (NameAt(slot - 1) == name) return slot - 1;
  }
}

AtomId AtomTable::Intern(std::string_view name) {
  if (const auto known = Find(name)) return *known;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto raced = Find(name)) return *raced;
  const size_t id = count_.load(std::memory_order_relaxed);
  const Location at = Locate(id);
  if (at.segment == kSegments) std::abort();  // the 32-bit id space is full
  if (at.offset == 0) {
    segments_[at.segment] =
        std::make_unique<std::string[]>(kFirstSegment << at.segment);
  }
  segments_[at.segment][at.offset] = name;
  count_.store(id + 1, std::memory_order_release);
  Index* index = indexes_.back().get();
  if (2 * (id + 1) > index->mask + 1) {
    indexes_.push_back(std::make_unique<Index>(2 * (index->mask + 1)));
    index = indexes_.back().get();
    for (size_t old = 0; old < id; ++old) Insert(index, old);
    index_.store(index, std::memory_order_release);
  }
  Insert(index, id);
  return static_cast<AtomId>(id);
}

std::string AtomTable::NameOf(AtomId id) const {
  if (const auto name = NameView(id)) return std::string(*name);
  std::string placeholder = "#";  // not "#" + ...: GCC 12 -O3 -Wrestrict
  placeholder += std::to_string(id);
  return placeholder;
}

size_t AtomTable::size() const {
  return count_.load(std::memory_order_acquire);
}

AtomTable& GlobalAtomTable() {
  static AtomTable* table = new AtomTable();
  return *table;
}

AtomId GlobalAtom(std::string_view name) {
  return GlobalAtomTable().Intern(name);
}

}  // namespace bagalg
