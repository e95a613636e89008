#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

/// \file replay.h
/// The traced replay: the per-layer half of the benchmark.
///
/// It replays a workload's statement stream (same name, same seed, so the
/// same statements) in-process, one ScriptRunner per session configured
/// like a bagalgd session, and times the calls a bagalgd request makes
/// into each module's public functions from this file — HTTP parse,
/// envelope decode, RunLine, wire encode, HTTP format — followed by the
/// calls RunLine makes internally, re-issued one at a time against the
/// session's database (parse, cost analysis, IR lowering and execution or
/// the evaluator, rendering). The typecheck and rewrite calls made inside
/// cost analysis and IR lowering are re-issued too, once per call those
/// make, so their times are parts of analysis.cost and ir.lower, not
/// additions to them. Every timed call is one span; a statement's spans
/// share its id. The spans are written as a Chrome trace that
/// tools/validate_obs.py accepts.

#include <cstdint>
#include <map>
#include <string>

#include "src/util/result.h"

namespace perfbench {

struct ReplayOptions {
  std::string workload;
  uint64_t seed = 0;
  /// Stop after this much replay time or this many statements.
  double budget_s = 10;
  uint64_t max_statements = 0;
  /// bagalgd's --budget (the preflight cost ceiling), so the replay takes
  /// the server's paths.
  uint64_t cost_budget = 0;
  /// Chrome trace output (spans of the first statements only).
  std::string trace_path;
};

struct ReplayReport {
  uint64_t statements = 0;
  uint64_t spans = 0;
  /// Statements whose RunLine time was below the time of its parts
  /// re-issued (lang.unattributed_us is an estimate from two runs).
  uint64_t unattributed_negative = 0;
  /// Per-layer metrics by BENCHMARK.json name (times are µs per replayed
  /// statement; counts per statement; ratios as fractions).
  std::map<std::string, double> metrics;
};

bagalg::Result<ReplayReport> RunReplay(const ReplayOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
