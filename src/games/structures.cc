#include "src/games/structures.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>

namespace bagalg::games {

namespace {

/// The set {atoms[i] : i ∈ indices} as a set-like bag value.
Value SetOfAtoms(const std::vector<AtomId>& atoms,
                 const std::vector<int>& indices) {
  Bag::Builder builder;
  for (int i : indices) builder.AddOne(Value::Atom(atoms[i]));
  auto bag = std::move(builder).Build();
  assert(bag.ok());
  return Value::FromBag(std::move(bag).value());
}

}  // namespace

bool Structure::HasEdge(const Value& u, const Value& v) const {
  for (const auto& [a, b] : edges) {
    if (a == u && b == v) return true;
  }
  return false;
}

std::vector<Value> CompletionDomain(const Structure& s) {
  std::vector<Value> objects;
  for (AtomId a : s.atoms) objects.push_back(Value::Atom(a));
  size_t n = s.atoms.size();
  assert(n < 24 && "completion domain is exponential in the atom count");
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    Bag::Builder builder;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) builder.AddOne(Value::Atom(s.atoms[i]));
    }
    auto bag = std::move(builder).Build();
    assert(bag.ok());
    objects.push_back(Value::FromBag(std::move(bag).value()));
  }
  return objects;
}

Result<StarGraphs> BuildFig1StarGraphs(int n) {
  if (n < 4 || n % 2 != 0) {
    return Status::InvalidArgument(
        "the Fig 1 construction needs an even n >= 4, got " +
        std::to_string(n));
  }
  // Fresh atoms named g<n>_1 .. g<n>_n (0-based indices internally).
  std::vector<AtomId> atoms;
  for (int i = 1; i <= n; ++i) {
    std::string name = "g";
    name += std::to_string(n);
    name += '_';
    name += std::to_string(i);
    atoms.push_back(GlobalAtom(name));
  }

  // Index-set families by the paper's induction (0-based indices).
  std::vector<std::vector<int>> in_sets = {{0, 1}, {2, 3}};
  std::vector<std::vector<int>> out_sets = {{0, 2}, {1, 3}};
  for (int m = 4; m < n; m += 2) {
    std::vector<std::vector<int>> next_in;
    std::vector<std::vector<int>> next_out;
    for (const auto& s : in_sets) {
      auto with_new1 = s;
      with_new1.push_back(m);  // element m is "n+1" at this stage
      next_in.push_back(with_new1);
      auto with_new2 = s;
      with_new2.push_back(m + 1);
      next_out.push_back(with_new2);
    }
    for (const auto& s : out_sets) {
      auto with_new2 = s;
      with_new2.push_back(m + 1);
      next_in.push_back(with_new2);
      auto with_new1 = s;
      with_new1.push_back(m);
      next_out.push_back(with_new1);
    }
    in_sets = std::move(next_in);
    out_sets = std::move(next_out);
  }

  StarGraphs out;
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  out.alpha = SetOfAtoms(atoms, all);
  for (const auto& s : in_sets) out.in_nodes.push_back(SetOfAtoms(atoms, s));
  for (const auto& s : out_sets) {
    out.out_nodes.push_back(SetOfAtoms(atoms, s));
  }

  out.g.atoms = atoms;
  out.g_prime.atoms = atoms;
  // G: every In node points at α; α points at every Out node.
  for (const Value& v : out.in_nodes) out.g.edges.emplace_back(v, out.alpha);
  for (const Value& v : out.out_nodes) {
    out.g.edges.emplace_back(out.alpha, v);
  }
  // G': same, except the first outgoing edge is inverted.
  out.g_prime.edges = out.g.edges;
  for (auto& [u, v] : out.g_prime.edges) {
    if (u == out.alpha) {
      std::swap(u, v);
      break;
    }
  }
  return out;
}

bool BalancedSplitHolds(const std::vector<Value>& family, int n) {
  if (family.empty()) return false;
  // Count, per atom, in how many member sets it occurs; all counts must be
  // |family| / 2.
  std::map<Value, size_t> occurrences;
  for (const Value& set : family) {
    for (size_t i = 0; i < set.bag().DistinctCount(); ++i) {
      occurrences[set.bag().ElementAt(i)] += 1;
    }
  }
  if (occurrences.size() != static_cast<size_t>(n)) return false;
  for (const auto& [atom, count] : occurrences) {
    (void)atom;
    if (count * 2 != family.size()) return false;
  }
  return true;
}

size_t InDegree(const Structure& s, const Value& node) {
  size_t d = 0;
  for (const auto& [u, v] : s.edges) {
    (void)u;
    if (v == node) ++d;
  }
  return d;
}

size_t OutDegree(const Structure& s, const Value& node) {
  size_t d = 0;
  for (const auto& [u, v] : s.edges) {
    (void)v;
    if (u == node) ++d;
  }
  return d;
}

Bag EdgesAsBag(const Structure& s) {
  Bag::Builder builder;
  for (const auto& [u, v] : s.edges) {
    builder.AddOne(Value::Tuple({u, v}));
  }
  auto bag = std::move(builder).Build();
  assert(bag.ok());
  return std::move(bag).value();
}

}  // namespace bagalg::games
