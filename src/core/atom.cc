#include "src/core/atom.h"

namespace bagalg {

AtomId AtomTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  AtomId id = static_cast<AtomId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<AtomId> AtomTable::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::string AtomTable::NameOf(AtomId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < names_.size()) return names_[id];
  std::string name = "#";
  name += std::to_string(id);
  return name;
}

size_t AtomTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

AtomTable& GlobalAtomTable() {
  static AtomTable* table = new AtomTable();
  return *table;
}

AtomId GlobalAtom(std::string_view name) {
  return GlobalAtomTable().Intern(name);
}

}  // namespace bagalg
