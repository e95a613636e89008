#include "perfbench/workload.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/algebra/database.h"
#include "src/algebra/eval.h"
#include "src/lang/parser.h"
#include "src/net/wire.h"
#include "src/obs/json.h"

namespace perfbench {

using bagalg::Bag;
using bagalg::Database;
using bagalg::Result;
using bagalg::Rng;
using bagalg::Status;
using bagalg::Value;

namespace {

// ------------------------------------------------------------ the shapes

// serve_small: per-session bags of at most 64 distinct pairs over a
// 12-atom domain; P and Q are small enough to join.
constexpr size_t kSmallSizes[] = {4, 8, 24, 64};
constexpr const char* kSmallNames[] = {"P", "Q", "R", "S"};
constexpr uint32_t kSmallVariants = 4;
constexpr uint64_t kSmallDomain = 12;

// exec_heavy: one universe shared by both sessions. Tuples are
// [c<i>, k<j>]: field 1 from 200 atoms bounds every projected result to
// at most 200 entries, field 2 from 1000 atoms is the join key.
struct HeavySlot {
  const char* name;
  size_t size;
  uint32_t variants;
};
constexpr HeavySlot kHeavySlots[] = {
    {"R", 1500, 1}, {"S", 1200, 1}, {"T", 1000, 1}, {"D", 250, 4}};
constexpr uint64_t kHeavyGroups = 200;
constexpr uint64_t kHeavyKeys = 1000;

struct HeavyTemplate {
  const char* text;  // "$C" is replaced by the seeded σ constant
  bool join;
  bool eval_ok;  // the tree walker can run it in server time
};
// Union chains, σ-over-× joins (promoted to hash joins by the IR), and
// ∩/∸/ε mixes; every result is projected to at most 200 entries.
constexpr HeavyTemplate kHeavyTemplates[] = {
    {"map(x -> tup(proj(1, x)), uplus(uplus(R, S), uplus(T, D)))", false, true},
    {"map(x -> tup(proj(1, x)), sel(x -> proj(2, x) == proj(4, x), "
     "prod(R, S)))",
     true, false},
    {"map(x -> tup(proj(3, x)), sel(x -> proj(2, x) == proj(4, x), "
     "prod(D, T)))",
     true, false},
    {"map(x -> tup(proj(1, x)), monus(uplus(R, D), S))", false, true},
    {"dedup(map(x -> tup(proj(1, x)), inter(uplus(R, S), uplus(T, D))))",
     false, true},
    {"map(x -> tup(proj(2, x)), sel(x -> proj(1, x) == $C, uplus(R, T)))",
     false, true},
    {"dedup(map(x -> tup(proj(1, x)), uplus(monus(S, D), inter(T, R))))",
     false, true},
    {"map(x -> tup(proj(1, x)), sel(x -> proj(2, x) == proj(4, x), "
     "prod(uplus(D, R), T)))",
     true, false},
};
// Share of exec_heavy reads sent as `eval` (drawn among the templates the
// tree walker can run, so those templates get a larger share).
constexpr double kHeavyEvalShare = 0.25;

constexpr double HeavyEvalableShare() {
  size_t n = 0;
  for (const HeavyTemplate& t : kHeavyTemplates) n += t.eval_ok ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(std::size(kHeavyTemplates));
}

// serve_wide: per-session stored bags W0..W5 (never written) straddling
// the 512-entry streaming threshold, and U0/U1 that writes rebind with
// 1k-2k-entry literals.
constexpr size_t kWideSizes[] = {256, 384, 640, 1024, 2048, 4096};
constexpr size_t kWideWriteSizes[2][3] = {{1024, 1536, 2048},
                                          {1280, 1792, 1152}};
constexpr uint64_t kWideDomain = 200;
// Share of entries whose multiplicity is past 2^64 (the BigNat slow path).
constexpr double kWideBigShare = 0.05;

// bagalgd --budget for serve_small and exec_heavy: high enough that no
// statement is refused, so the preflight only adds its cost analysis.
constexpr uint64_t kCostBudget = 1000000000000000ull;

// --------------------------------------------------------- data literals

struct LiteralSpec {
  size_t distinct = 0;
  std::string prefix1 = "a";
  uint64_t domain1 = 1;
  std::string prefix2 = "a";
  uint64_t domain2 = 1;
  uint64_t max_mult = 3;
  double big_share = 0;
};

/// A bag literal of `distinct` distinct pairs [prefix1<i>, prefix2<j>].
std::string MakeLiteral(Rng& rng, const LiteralSpec& spec) {
  std::set<uint64_t> chosen;
  std::string out = "{{";
  while (chosen.size() < spec.distinct) {
    const uint64_t i = rng.Below(spec.domain1);
    const uint64_t j = rng.Below(spec.domain2);
    if (!chosen.insert(i * spec.domain2 + j).second) continue;
    if (chosen.size() > 1) out += ", ";
    out += "[" + spec.prefix1 + std::to_string(i) + ", " + spec.prefix2 +
           std::to_string(j) + "]";
    if (spec.big_share > 0 && rng.Coin(spec.big_share)) {
      // 21 decimal digits starting with 2: always past 2^64 (20 digits).
      out += "*2";
      for (int d = 0; d < 20; ++d) out += static_cast<char>('0' + rng.Below(10));
    } else {
      const uint64_t n = rng.Range(1, spec.max_mult);
      if (n > 1) out += "*" + std::to_string(n);
    }
  }
  return out + "}}";
}

WorkloadSpec SpecFor(std::string_view name) {
  WorkloadSpec s;
  s.name = std::string(name);
  if (name == "serve_small") {
    s.why = "small statements at a fixed open-loop rate: per-request fixed "
            "costs (HTTP, envelope, event loop, turnstile, plan time) "
            "dominate";
    s.loop = Loop::kOpen;
    s.connections = 4;
    s.sessions = 16;
    s.offered_rate = 1500;
    s.write_share = 0.2;
    s.bag1_share = 0.25;
    s.executors = 2;
    s.bagalg_threads = 1;
    s.cpus = 1;
    s.cost_budget = kCostBudget;
  } else if (name == "exec_heavy") {
    s.why = "closed loop of IR-heavy queries over thousands of tuples: "
            "kernels, IR and the thread pool dominate";
    s.loop = Loop::kClosed;
    s.connections = 2;
    s.sessions = 2;
    s.write_share = 0.05;
    s.bag1_share = 0;
    s.executors = 2;
    s.bagalg_threads = 2;
    s.cost_budget = kCostBudget;
  } else if (name == "serve_wide") {
    s.why = "closed loop returning stored bags of 256-4096 entries: "
            "rendering, wire encoding, streaming and BigNat dominate";
    s.loop = Loop::kClosed;
    s.connections = 4;
    s.sessions = 4;
    s.write_share = 0.1;
    s.bag1_share = 0.5;
    s.executors = 2;
    s.bagalg_threads = 1;
    // No budget: its multiplicities past 2^64 give estimates beyond any
    // uint64 budget, so every statement would be refused.
  }
  return s;
}

uint64_t NameSalt(std::string_view name) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string JoinTemplate(const std::string& left, const std::string& right) {
  return "map(x -> tup(proj(1, x), proj(4, x)), sel(x -> proj(2, x) == "
         "proj(3, x), prod(" +
         left + ", " + right + ")))";
}

uint32_t SlotIndex(const std::vector<Slot>& slots, std::string_view name) {
  for (uint32_t i = 0; i < slots.size(); ++i) {
    if (slots[i].name == name) return i;
  }
  return 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_small", "exec_heavy",
                                                 "serve_wide"};
  return names;
}

std::string Statement::OracleKey(uint32_t universe) const {
  std::string key = std::to_string(universe) + "|" + query;
  for (const auto& [slot, variant] : versions) {
    key += "|" + std::to_string(slot) + "=" + std::to_string(variant);
  }
  return key;
}

Result<Workload> Workload::Create(std::string_view name, uint64_t seed) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    return Status::InvalidArgument("unknown workload: " + std::string(name));
  }
  Workload w;
  w.spec_ = SpecFor(name);
  Rng master(seed ^ NameSalt(name));
  w.rng_ = master.Fork();
  Rng data = master.Fork();

  if (name == "serve_small") {
    for (uint32_t u = 0; u < w.spec_.sessions; ++u) {
      std::vector<Slot> slots;
      for (size_t i = 0; i < std::size(kSmallSizes); ++i) {
        Slot slot;
        slot.name = kSmallNames[i];
        LiteralSpec lit;
        lit.distinct = kSmallSizes[i];
        lit.domain1 = lit.domain2 = kSmallDomain;
        for (uint32_t v = 0; v < kSmallVariants; ++v) {
          slot.variants.push_back(MakeLiteral(data, lit));
        }
        slots.push_back(std::move(slot));
      }
      w.universes_.push_back(std::move(slots));
      w.session_universe_.push_back(u);
    }
  } else if (name == "exec_heavy") {
    std::vector<Slot> slots;
    for (const HeavySlot& hs : kHeavySlots) {
      Slot slot;
      slot.name = hs.name;
      LiteralSpec lit;
      lit.distinct = hs.size;
      lit.prefix1 = "c";
      lit.domain1 = kHeavyGroups;
      lit.prefix2 = "k";
      lit.domain2 = kHeavyKeys;
      for (uint32_t v = 0; v < hs.variants; ++v) {
        slot.variants.push_back(MakeLiteral(data, lit));
      }
      slots.push_back(std::move(slot));
    }
    w.universes_.push_back(std::move(slots));
    w.session_universe_.assign(w.spec_.sessions, 0);
    w.select_constant_ = "'c" + std::to_string(data.Below(kHeavyGroups));
  } else {  // serve_wide
    for (uint32_t u = 0; u < w.spec_.sessions; ++u) {
      std::vector<Slot> slots;
      LiteralSpec lit;
      lit.prefix2 = "b";
      lit.domain1 = lit.domain2 = kWideDomain;
      lit.max_mult = 9;
      lit.big_share = kWideBigShare;
      for (size_t i = 0; i < std::size(kWideSizes); ++i) {
        Slot slot;
        slot.name = "W" + std::to_string(i);
        lit.distinct = kWideSizes[i];
        slot.variants.push_back(MakeLiteral(data, lit));
        slots.push_back(std::move(slot));
      }
      for (size_t i = 0; i < 2; ++i) {
        Slot slot;
        slot.name = "U" + std::to_string(i);
        for (const size_t size : kWideWriteSizes[i]) {
          lit.distinct = size;
          slot.variants.push_back(MakeLiteral(data, lit));
        }
        slots.push_back(std::move(slot));
      }
      w.universes_.push_back(std::move(slots));
      w.session_universe_.push_back(u);
    }
  }
  for (uint32_t s = 0; s < w.spec_.sessions; ++s) {
    w.state_.emplace_back(w.universes_[w.session_universe_[s]].size(), 0);
  }
  return w;
}

std::string Workload::SessionName(uint32_t session) const {
  std::string n = std::to_string(session);
  if (n.size() < 2) n = "0" + n;
  return "s" + n;
}

std::vector<std::string> Workload::SetupStatements(uint32_t session) const {
  std::vector<std::string> out;
  for (const Slot& slot : universes_[session_universe_[session]]) {
    out.push_back("let " + slot.name + " = " + slot.variants[0]);
  }
  return out;
}

Statement Workload::ProbeStatement(uint32_t session) const {
  Statement st;
  st.session = session;
  st.query = universes_[session_universe_[session]][0].name;
  st.text = "eval " + st.query;
  st.versions = {{0, 0}};
  return st;
}

Statement Workload::Next() {
  const uint32_t session =
      static_cast<uint32_t>(rng_.Below(spec_.sessions));
  const bool write = rng_.Coin(spec_.write_share);
  const bool bag1 = rng_.Coin(spec_.bag1_share);
  Statement st = write ? NextWrite(session) : NextRead(session);
  st.index = next_index_++;
  st.session = session;
  st.write = write;
  st.bag1 = bag1;
  return st;
}

Statement Workload::NextWrite(uint32_t session) {
  const std::vector<Slot>& slots = universes_[session_universe_[session]];
  // Only slots with several variants are ever rebound.
  std::vector<uint32_t> writable;
  for (uint32_t i = 0; i < slots.size(); ++i) {
    if (slots[i].variants.size() > 1) writable.push_back(i);
  }
  const uint32_t slot = writable[rng_.Below(writable.size())];
  const uint32_t variant =
      static_cast<uint32_t>(rng_.Below(slots[slot].variants.size()));
  state_[session][slot] = variant;
  Statement st;
  st.query = slots[slot].name;
  st.text = "let " + slots[slot].name + " = " + slots[slot].variants[variant];
  st.versions = {{slot, variant}};
  return st;
}

Statement Workload::NextRead(uint32_t session) {
  const std::vector<Slot>& slots = universes_[session_universe_[session]];
  Statement st;
  std::string command = "eval";
  std::set<std::string> used;
  auto leaf = [&](const std::vector<std::string>& from) {
    const std::string& name = from[rng_.Below(from.size())];
    used.insert(name);
    return name;
  };

  if (spec_.name == "serve_small") {
    const std::vector<std::string> all = {"P", "Q", "R", "S"};
    const std::vector<std::string> joinable = {"P", "Q"};
    // 1-3 operators; a join (σ over ×, projected back to pairs) counts
    // as one.
    const uint64_t ops = rng_.Range(1, 3);
    std::string e;
    switch (rng_.Below(5)) {
      case 0: e = "uplus(" + leaf(all) + ", " + leaf(all) + ")"; break;
      case 1: e = "monus(" + leaf(all) + ", " + leaf(all) + ")"; break;
      case 2: e = "inter(" + leaf(all) + ", " + leaf(all) + ")"; break;
      case 3: e = "dedup(" + leaf(all) + ")"; break;
      default: e = JoinTemplate(leaf(joinable), leaf(joinable)); break;
    }
    for (uint64_t i = 1; i < ops; ++i) {
      switch (rng_.Below(4)) {
        case 0: e = "uplus(" + e + ", " + leaf(all) + ")"; break;
        case 1: e = "monus(" + e + ", " + leaf(all) + ")"; break;
        case 2: e = "inter(" + leaf(all) + ", " + e + ")"; break;
        default: e = "dedup(" + e + ")"; break;
      }
    }
    const double c = rng_.Uniform();
    command = c < 0.4 ? "eval" : (c < 0.6 ? "count" : "exec");
    st.query = std::move(e);
  } else if (spec_.name == "exec_heavy") {
    if (template_deck_.empty()) {
      for (size_t i = 0; i < std::size(kHeavyTemplates); ++i) {
        template_deck_.push_back(i);
      }
      for (size_t i = template_deck_.size(); i > 1; --i) {
        std::swap(template_deck_[i - 1], template_deck_[rng_.Below(i)]);
      }
    }
    const HeavyTemplate& t = kHeavyTemplates[template_deck_.back()];
    template_deck_.pop_back();
    std::string e = t.text;
    const size_t at = e.find("$C");
    if (at != std::string::npos) e.replace(at, 2, select_constant_);
    for (const Slot& slot : slots) {
      // Template slot names are single letters followed by ',' or ')'.
      if (e.find(slot.name + ",") != std::string::npos ||
          e.find(slot.name + ")") != std::string::npos) {
        used.insert(slot.name);
      }
    }
    const bool eval =
        t.eval_ok && rng_.Coin(kHeavyEvalShare / HeavyEvalableShare());
    command = eval ? "eval" : "exec";
    st.join = t.join;
    st.query = std::move(e);
  } else {  // serve_wide
    std::vector<std::string> all;
    for (const Slot& slot : slots) all.push_back(slot.name);
    if (rng_.Coin(0.6)) {
      st.query = leaf(all);
    } else {
      const std::string a = leaf(all);
      st.query = "uplus(" + a + ", " + leaf(all) + ")";
    }
  }
  for (const std::string& name : used) {
    const uint32_t slot = SlotIndex(slots, name);
    st.versions.emplace_back(slot, state_[session][slot]);
  }
  std::sort(st.versions.begin(), st.versions.end());
  st.text = command + " " + st.query;
  return st;
}

// ------------------------------------------------------------ requests

std::string EncodeStatementHttp(const std::string& session,
                                const std::string& statement, bool bag1) {
  std::string body;
  std::string type;
  if (bag1) {
    bagalg::net::WireStatementRequest req;
    req.session = session;
    req.statement = statement;
    body = bagalg::net::EncodeFrame(bagalg::net::WireFormat::kBinary,
                                    bagalg::net::EncodeStatementRequest(req));
    type = "application/x-bag1";
  } else {
    body = "{\"session\":" + bagalg::obs::JsonQuote(session) +
           ",\"statement\":" + bagalg::obs::JsonQuote(statement) + "}";
    type = "application/json";
  }
  return "POST /v1/statement HTTP/1.1\r\nHost: localhost\r\nContent-Type: " +
         type + "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

std::string EncodeGetHttp(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

// -------------------------------------------------------------- oracle

Result<Bag> Oracle::SlotBag(uint32_t universe, uint32_t slot,
                            uint32_t variant) {
  const std::string key = std::to_string(universe) + "/" +
                          std::to_string(slot) + "/" + std::to_string(variant);
  auto it = bags_.find(key);
  if (it != bags_.end()) return it->second;
  const Slot& s = workload_.Slots(universe)[slot];
  BAGALG_ASSIGN_OR_RETURN(Value v,
                          bagalg::lang::ParseValue(s.variants[variant]));
  if (!v.IsBag()) return Status::Internal("slot literal is not a bag");
  bags_.emplace(key, v.bag());
  return v.bag();
}

Result<Value> Oracle::Expected(const Statement& read) {
  const uint32_t universe = workload_.UniverseOf(read.session);
  const std::string key = read.OracleKey(universe);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;

  const std::vector<Slot>& slots = workload_.Slots(universe);
  BAGALG_ASSIGN_OR_RETURN(bagalg::Expr expr,
                          bagalg::lang::ParseExpr(read.query));
  bagalg::Evaluator evaluator;
  Value result;
  if (!read.join) {
    Database db;
    for (const auto& [slot, variant] : read.versions) {
      BAGALG_ASSIGN_OR_RETURN(Bag bag, SlotBag(universe, slot, variant));
      BAGALG_RETURN_IF_ERROR(db.Put(slots[slot].name, std::move(bag)));
    }
    BAGALG_ASSIGN_OR_RETURN(Bag bag, evaluator.EvalToBag(expr, db));
    result = Value::FromBag(std::move(bag));
  } else {
    // Split every input by join key (tuple field 2), evaluate per key.
    std::map<Value, std::map<std::string, Bag::Builder>> parts;
    std::map<std::string, bagalg::Type> types;
    for (const auto& [slot, variant] : read.versions) {
      BAGALG_ASSIGN_OR_RETURN(Bag bag, SlotBag(universe, slot, variant));
      const std::string& name = slots[slot].name;
      types.emplace(name, bag.element_type());
      for (const bagalg::BagEntry& e : bag.entries()) {
        const Value& k = e.value.fields().at(1);
        auto& builders = parts[k];
        auto b = builders.find(name);
        if (b == builders.end()) {
          b = builders.emplace(name, Bag::Builder(bag.element_type())).first;
        }
        b->second.Add(e.value, e.count);
      }
    }
    std::vector<Bag> pieces;
    for (auto& [k, builders] : parts) {
      Database db;
      for (const auto& [name, type] : types) {
        auto b = builders.find(name);
        Bag part(type);
        if (b != builders.end()) {
          BAGALG_ASSIGN_OR_RETURN(part, std::move(b->second).Build());
        }
        BAGALG_RETURN_IF_ERROR(db.Put(name, std::move(part)));
      }
      BAGALG_ASSIGN_OR_RETURN(Bag piece, evaluator.EvalToBag(expr, db));
      pieces.push_back(std::move(piece));
    }
    Bag::Builder all;
    for (const Bag& piece : pieces) all.AddBag(piece);
    BAGALG_ASSIGN_OR_RETURN(Bag bag, std::move(all).Build());
    result = Value::FromBag(std::move(bag));
  }
  memo_.emplace(key, result);
  return result;
}

}  // namespace perfbench
