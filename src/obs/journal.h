#ifndef BAGALG_OBS_JOURNAL_H_
#define BAGALG_OBS_JOURNAL_H_

/// \file journal.h
/// The query journal: one append-only structured record per executed
/// statement — what ran, what the static cost analyzer predicted, what it
/// actually cost, and how the governor disposed of it. The REPL appends an
/// entry for every eval/count/exec statement (success *and* failure; see
/// ScriptRunner), keeps the most recent `capacity` entries in memory for
/// the `\journal [N]` command, and exports them as JSONL — one JSON object
/// per line, the schema documented in docs/OBSERVABILITY.md and checked in
/// CI against tools/schemas/journal.schema.json.
///
/// Layering: the journal stores *strings* for the analyzer's verdicts
/// (tractability class, cost bound), so obs stays independent of
/// src/analysis; the driver that owns both computes them.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace bagalg::obs {

/// One executed statement.
struct JournalEntry {
  /// 1-based session-wide order, stamped by Append.
  uint64_t seq = 0;
  /// Statement verb: "eval", "count", or "exec".
  std::string kind;
  /// Execution engine that produced the result: "eval" for the
  /// tree-walking evaluator, "ir" for exec statements. Empty in entries
  /// predating engine selection.
  std::string engine;
  /// FNV-1a 64-bit hash of the statement text — a stable identity for
  /// aggregating repeated statements across sessions without shipping the
  /// (possibly large) text.
  uint64_t statement_hash = 0;
  /// The statement text itself (expression part only).
  std::string statement;
  /// Static analyzer verdicts, empty when analysis was unavailable
  /// (e.g. the expression no longer typechecks with symbolic inputs).
  std::string tractability;
  std::string cost_bound;
  uint64_t wall_ns = 0;
  /// CPU time of the thread that ran the statement.
  uint64_t cpu_ns = 0;
  /// Evaluator steps consumed (0 for exec statements).
  uint64_t steps = 0;
  /// Distinct elements in the result bag (0 on failure / non-bag results).
  uint64_t result_distinct = 0;
  /// Bytes accounted against the statement's governor.
  uint64_t bytes_accounted = 0;
  /// Governor disposition: "ok", "deadline", "memcap", "cancel",
  /// "budget-refused", "fault", or "error" (a non-governor failure).
  std::string outcome;
  /// The failing Status message; empty on success.
  std::string status_message;

  /// The entry as one JSONL line (no trailing newline).
  std::string ToJsonLine() const;
};

/// FNV-1a 64-bit — the journal's statement identity hash.
uint64_t HashStatementText(std::string_view text);

/// Bounded in-memory journal with JSONL export. Thread-safe; appends are
/// per-statement, so a mutex is plenty.
class QueryJournal {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit QueryJournal(size_t capacity = kDefaultCapacity);

  /// Stamps entry.seq, retains the entry (evicting the oldest beyond
  /// capacity), and returns the seq.
  uint64_t Append(JournalEntry entry);

  /// Installs a header emitted as the *first* line of every JSONL export —
  /// a complete JSON object string that must carry `"header":true` so
  /// consumers (tools/validate_obs.py) can tell it from entries. The
  /// drivers put the build identity here (BuildInfoJson plus the default
  /// execution engine), so an exported journal is self-describing: which
  /// binary produced it is in the file, not in tribal knowledge. Empty
  /// (the default) emits no header.
  void set_header_json(std::string header) { header_ = std::move(header); }
  const std::string& header_json() const { return header_; }

  /// The most recent min(n, retained) entries, oldest first.
  std::vector<JournalEntry> Tail(size_t n) const;

  /// Total entries ever appended (>= retained count).
  uint64_t total() const;
  size_t capacity() const { return capacity_; }

  /// Writes every retained entry as JSONL to `path` (truncates).
  Status ExportJsonl(const std::string& path) const;

  /// Human-readable rendering of the last `n` entries, newest last — the
  /// `\journal [N]` output.
  std::string ToString(size_t n) const;

 private:
  size_t capacity_;
  /// Set once at session start, before exports; not guarded.
  std::string header_;
  mutable std::mutex mu_;
  uint64_t next_seq_ = 1;   // guarded by mu_
  std::vector<JournalEntry> entries_;  // ring, indexed by seq % capacity_
};

}  // namespace bagalg::obs

#endif  // BAGALG_OBS_JOURNAL_H_
