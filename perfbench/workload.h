#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// Seeded traffic for the bagalgd benchmark: the three workloads, their
/// session data, their statement streams, and the in-process Evaluator
/// oracle that says what every read must return.
///
/// A seed fixes everything a workload sends. It changes the contents of
/// the data (which atoms, which multiplicities, which constants) and the
/// order of the statements, never the workload's shape: bag sizes, query
/// templates and the read/write/BAG1 shares are the same for every seed,
/// so runs on different seeds measure the same thing.
///
/// Every session's data lives in named slots. Each slot has a few
/// variants (variant 0 is loaded at setup); a write rebinds a slot to one
/// of its variants, so the state of a session is always a vector of
/// variant numbers and the oracle result of a read depends only on the
/// query and the variants of the slots it names.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/value.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace perfbench {

enum class Loop { kOpen, kClosed };

/// The fixed shape of one workload. The numbers are the ones the benchmark
/// records (README.md); a seed never changes them.
struct WorkloadSpec {
  std::string name;
  std::string why;
  Loop loop = Loop::kClosed;
  unsigned connections = 1;
  unsigned sessions = 1;
  /// Open loop only: statements per second, evenly spaced.
  double offered_rate = 0;
  /// Share of statements that are `let` writes; the rest are reads.
  double write_share = 0;
  /// Share of statements sent on the BAG1 binary wire.
  double bag1_share = 0;
  /// bagalgd --executors and BAGALG_THREADS for this workload.
  unsigned executors = 1;
  unsigned bagalg_threads = 1;
  /// Run the server and the load generator on this many CPUs (the last
  /// ones; 0 = all). See README.md, "One CPU for serve_small".
  unsigned cpus = 0;
  /// bagalgd --budget (0 = none). A budget makes the server run the
  /// preflight cost analysis on every statement.
  uint64_t cost_budget = 0;
};

/// The names the benchmark accepts, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// One bag-valued slot of a session's data.
struct Slot {
  std::string name;
  /// Bag literals in the surface syntax; variant 0 is loaded at setup.
  std::vector<std::string> variants;
};

/// One statement of a stream.
struct Statement {
  uint64_t index = 0;
  uint32_t session = 0;
  bool write = false;
  bool bag1 = false;
  /// The full statement line as sent ("exec ...", "let X = ...").
  std::string text;
  /// Reads: the expression. Writes: the slot name.
  std::string query;
  /// Reads: (slot, variant) of every slot the expression names.
  /// Writes: the one (slot, variant) the statement binds.
  std::vector<std::pair<uint32_t, uint32_t>> versions;
  /// Reads only: the expression is an equi-join on field 2 that the oracle
  /// evaluates one join key at a time.
  bool join = false;

  /// Identifies the oracle result of a read: universe, query, versions.
  std::string OracleKey(uint32_t universe) const;
};

class Workload {
 public:
  /// kInvalidArgument for an unknown workload name.
  static bagalg::Result<Workload> Create(std::string_view name, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }

  /// Session names are "s00", "s01", ...
  std::string SessionName(uint32_t session) const;
  /// Sessions are pinned to connections round-robin.
  uint32_t ConnectionOf(uint32_t session) const {
    return session % spec_.connections;
  }
  /// Sessions that share data share a universe (exec_heavy's two sessions).
  uint32_t UniverseOf(uint32_t session) const { return session_universe_[session]; }
  const std::vector<Slot>& Slots(uint32_t universe) const {
    return universes_[universe];
  }

  /// The `let` statements that load variant 0 of every slot of a session.
  std::vector<std::string> SetupStatements(uint32_t session) const;

  /// A read that ends setup: `eval` of the session's first slot at
  /// variant 0 (so its oracle result is that literal).
  Statement ProbeStatement(uint32_t session) const;

  /// The next statement of the stream. Deterministic in (name, seed).
  Statement Next();

 private:
  Workload() = default;
  Statement NextRead(uint32_t session);
  Statement NextWrite(uint32_t session);

  WorkloadSpec spec_;
  bagalg::Rng rng_{0};
  uint64_t next_index_ = 0;
  std::vector<std::vector<Slot>> universes_;
  std::vector<uint32_t> session_universe_;
  /// Current variant of every slot, per session.
  std::vector<std::vector<uint32_t>> state_;
  /// exec_heavy templates are drawn in shuffled blocks so every block of
  /// statements holds each template once; this is the unread rest.
  std::vector<size_t> template_deck_;
  /// Constants baked into templates at creation (exec_heavy σ constant).
  std::string select_constant_;
};

/// The HTTP/1.1 request bytes for one statement: a JSON envelope, or a
/// BAG1 binary frame with Content-Type application/x-bag1.
std::string EncodeStatementHttp(const std::string& session,
                                const std::string& statement, bool bag1);

/// Plain GET request bytes (e.g. "/metrics", "/healthz").
std::string EncodeGetHttp(const std::string& path);

/// Expected results of reads, computed in-process with the tree-walking
/// Evaluator over the same seeded literals the server loaded. Memoized by
/// Statement::OracleKey, so a repeated (query, data version) costs one
/// evaluation.
///
/// Equi-joins (Statement::join) are evaluated one join key at a time: the
/// inputs are split by tuple field 2 and the Evaluator runs the same
/// expression on each part; the union of the parts is the result, because
/// the join pairs only tuples of equal keys and every other operator in a
/// join template distributes over ⊎. The tree walker would otherwise build
/// the full product of two bags of thousands of tuples.
class Oracle {
 public:
  explicit Oracle(const Workload& workload) : workload_(workload) {}

  bagalg::Result<bagalg::Value> Expected(const Statement& read);

 private:
  bagalg::Result<bagalg::Bag> SlotBag(uint32_t universe, uint32_t slot,
                                      uint32_t variant);

  const Workload& workload_;
  std::map<std::string, bagalg::Value> memo_;
  std::map<std::string, bagalg::Bag> bags_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
