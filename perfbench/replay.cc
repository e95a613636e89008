#include "perfbench/replay.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/workload.h"
#include "src/algebra/eval.h"
#include "src/algebra/rewrite.h"
#include "src/algebra/typecheck.h"
#include "src/analysis/static_cost.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/lang/parser.h"
#include "src/lang/script.h"
#include "src/net/http.h"
#include "src/net/json_reader.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/bignat.h"
#include "src/util/governor.h"
#include "src/util/parallel.h"

namespace perfbench {

using bagalg::Result;
using bagalg::Status;
using bagalg::Value;

namespace {

/// Spans are kept for this many statements.
constexpr uint64_t kTracedStatements = 2000;

/// Process-wide counters the per-statement layer counts are deltas of.
struct Counters {
  uint64_t ir_rows = 0;
  uint64_t ir_batches = 0;
  uint64_t index_probes = 0;
  uint64_t index_hits = 0;
  uint64_t parallel = 0;
  uint64_t serial = 0;
  uint64_t checkpoints = 0;
  uint64_t bignat_slow = 0;

  static Counters Now() {
    auto& m = bagalg::obs::GlobalMetrics();
    Counters c;
    c.ir_rows = m.GetCounter("ir.rows")->value();
    c.ir_batches = m.GetCounter("ir.batches")->value();
    c.index_probes = m.GetCounter("kernel.index_probes")->value();
    c.index_hits = m.GetCounter("kernel.index_hits")->value();
    const bagalg::ParallelStats p = bagalg::ThreadPool::Stats();
    c.parallel = p.parallel_dispatches;
    c.serial = p.serial_dispatches;
    c.checkpoints = bagalg::ResourceGovernor::Stats().checkpoints;
    c.bignat_slow = bagalg::BigNat::SlowPathOps();
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    ir_rows += after.ir_rows - before.ir_rows;
    ir_batches += after.ir_batches - before.ir_batches;
    index_probes += after.index_probes - before.index_probes;
    index_hits += after.index_hits - before.index_hits;
    parallel += after.parallel - before.parallel;
    serial += after.serial - before.serial;
    checkpoints += after.checkpoints - before.checkpoints;
    bignat_slow += after.bignat_slow - before.bignat_slow;
  }
};

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t statement;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t cpu_ns;
};

/// Times calls into the layers: accumulates per-layer nanoseconds and,
/// while a statement is being traced, keeps one span per call.
class LayerClock {
 public:
  explicit LayerClock(uint64_t origin_ns) : origin_ns_(origin_ns) {}

  void BeginStatement(uint64_t statement, bool traced) {
    statement_ = statement;
    traced_ = traced;
    root_id_ = next_id_++;
    root_start_ = NowNs();
    root_cpu_ = bagalg::obs::ThreadCpuNowNs();
  }

  void EndStatement() {
    if (!traced_) return;
    spans_.push_back({"perfbench.statement", root_id_, 0, statement_,
                      root_start_, NowNs(),
                      bagalg::obs::ThreadCpuNowNs() - root_cpu_});
  }

  /// Runs `f` as one call into `layer`; returns its elapsed nanoseconds.
  template <typename F>
  uint64_t Time(const char* layer, F&& f) {
    const uint64_t cpu0 = bagalg::obs::ThreadCpuNowNs();
    const uint64_t t0 = NowNs();
    f();
    const uint64_t t1 = NowNs();
    const uint64_t elapsed = t1 - t0;
    totals_ns_[layer] += elapsed;
    if (traced_) {
      spans_.push_back({layer, next_id_++, root_id_, statement_, t0, t1,
                        bagalg::obs::ThreadCpuNowNs() - cpu0});
    }
    return elapsed;
  }

  uint64_t total_ns(const std::string& layer) const {
    auto it = totals_ns_.find(layer);
    return it == totals_ns_.end() ? 0 : it->second;
  }
  size_t span_count() const { return spans_.size(); }

  /// Chrome trace-event JSON in the shape of tools/schemas/trace.schema.json.
  Status WriteTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::Internal("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char num[64];
    auto us = [&](uint64_t ns) {
      std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(ns) / 1000.0);
      return std::string(num);
    };
    for (const SpanRecord& s : spans_) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":" << bagalg::obs::JsonQuote(s.name)
          << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << us(s.start_ns - origin_ns_)
          << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{\"id\":"
          << s.id << ",\"parent\":" << s.parent
          << ",\"depth\":" << (s.parent == 0 ? 0 : 1)
          << ",\"cpu_us\":" << us(s.cpu_ns) << ",\"statement\":" << s.statement
          << "}}";
    }
    out << "]}\n";
    return out ? Status::Ok() : Status::Internal("short write: " + path);
  }

 private:
  uint64_t origin_ns_;
  uint64_t next_id_ = 1;
  uint64_t statement_ = 0;
  bool traced_ = false;
  uint64_t root_id_ = 0;
  uint64_t root_start_ = 0;
  uint64_t root_cpu_ = 0;
  std::map<std::string, uint64_t> totals_ns_;
  std::vector<SpanRecord> spans_;
};

/// The bytes bagalgd would write for a successful statement, built with
/// the server's own encoders: a BAG1 frame, a chunked-streamed JSON
/// envelope (results at or past the stream threshold), or a JSON body.
struct EncodedResponse {
  std::string body;
  size_t result_bytes = 0;
  bool streamed = false;
};

EncodedResponse EncodeResponse(const std::string& session,
                               const std::string& output,
                               const std::optional<Value>& result, bool bag1) {
  // The benchmark starts bagalgd without --stream-threshold.
  const size_t stream_threshold =
      bagalg::net::ServerOptions{}.stream_entries_threshold;
  EncodedResponse out;
  if (bag1) {
    bagalg::net::WireStatementResponse wire;
    wire.ok = true;
    wire.outcome = "ok";
    wire.output = output;
    wire.has_result = result.has_value();
    if (result.has_value()) wire.result = *result;
    out.body = bagalg::net::EncodeFrame(bagalg::net::WireFormat::kBinary,
                                        bagalg::net::EncodeStatementResponse(wire));
    out.result_bytes = out.body.size();
    return out;
  }
  std::string prefix = "{\"ok\":true,\"outcome\":\"ok\",\"session\":" +
                       bagalg::obs::JsonQuote(session) +
                       ",\"output\":" + bagalg::obs::JsonQuote(output);
  const std::string suffix = ",\"wall_us\":0}";
  if (result.has_value() && result->IsBag() && stream_threshold > 0 &&
      result->bag().entries().size() >= stream_threshold) {
    prefix += ",\"result\":";
    bagalg::net::WireJsonStreamer streamer(prefix, *result, suffix);
    std::string slice;
    bool more = true;
    while (more) {
      slice.clear();
      more = streamer.Produce(64 * 1024, &slice);
      bagalg::net::AppendHttpChunk(slice, &out.body);
    }
    bagalg::net::AppendHttpLastChunk(&out.body);
    out.result_bytes = out.body.size() - prefix.size() - suffix.size();
    out.streamed = true;
    return out;
  }
  out.body = std::move(prefix);
  if (result.has_value()) {
    const std::string json = bagalg::net::ValueToWireJson(*result);
    out.result_bytes = json.size();
    out.body += ",\"result\":" + json;
  }
  out.body += suffix;
  return out;
}

}  // namespace

Result<ReplayReport> RunReplay(const ReplayOptions& options) {
  BAGALG_ASSIGN_OR_RETURN(Workload workload,
                          Workload::Create(options.workload, options.seed));
  const WorkloadSpec& spec = workload.spec();
  std::vector<std::unique_ptr<bagalg::lang::ScriptRunner>> runners;
  for (uint32_t s = 0; s < spec.sessions; ++s) {
    auto runner = std::make_unique<bagalg::lang::ScriptRunner>();
    if (options.cost_budget > 0) {
      bagalg::analysis::CostBudget budget;
      budget.max_estimated_size = bagalg::BigNat(options.cost_budget);
      runner->set_budget(budget);
    }
    for (const std::string& line : workload.SetupStatements(s)) {
      BAGALG_RETURN_IF_ERROR(runner->RunLine(line).status());
    }
    runners.push_back(std::move(runner));
  }

  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(options.budget_s * 1e9);
  LayerClock clock(start);
  Counters counts;
  uint64_t statements = 0;
  int64_t unattributed_ns = 0;
  uint64_t unattributed_negative = 0;
  uint64_t result_bytes = 0;

  while (statements < options.max_statements && NowNs() < deadline) {
    const Statement st = workload.Next();
    bagalg::lang::ScriptRunner& runner = *runners[st.session];
    const std::string session = workload.SessionName(st.session);
    const std::string http = EncodeStatementHttp(session, st.text, st.bag1);
    clock.BeginStatement(st.index, statements < kTracedStatements);

    // ---- the server's path for one request
    bagalg::net::HttpRequest request;
    Result<bool> parsed = false;
    clock.Time("net.http.parse", [&] {
      bagalg::net::HttpReader reader;
      reader.Feed(http);
      parsed = reader.Next(&request);
    });
    if (!parsed.ok() || !*parsed) return Status::Internal("replay: HTTP parse failed");

    std::string statement;
    if (st.bag1) {
      Status decoded = Status::Ok();
      clock.Time("net.bag1.decode", [&] {
        size_t consumed = 0;
        auto frame = bagalg::net::DecodeFrame(request.body, &consumed);
        if (!frame.ok()) {
          decoded = frame.status();
          return;
        }
        auto req = bagalg::net::DecodeStatementRequest(frame->payload);
        if (!req.ok()) {
          decoded = req.status();
          return;
        }
        statement = std::move(req->statement);
      });
      BAGALG_RETURN_IF_ERROR(decoded);
    } else {
      Status decoded = Status::Ok();
      clock.Time("net.json.decode", [&] {
        auto doc = bagalg::net::ParseJson(request.body);
        if (!doc.ok()) {
          decoded = doc.status();
          return;
        }
        statement = doc->GetString("statement");
      });
      BAGALG_RETURN_IF_ERROR(decoded);
    }

    const Counters before = Counters::Now();
    Result<std::string> output = std::string();
    const uint64_t runline_ns =
        clock.Time("lang.runline", [&] { output = runner.RunLine(statement); });
    if (!output.ok()) {
      return Status::Internal("replay: statement failed: " + st.text + ": " +
                              output.status().ToString());
    }
    EncodedResponse encoded;
    clock.Time(st.bag1 ? "net.wire.encode_bag1" : "net.wire.encode_json", [&] {
      encoded = EncodeResponse(session, *output, runner.last_result(), st.bag1);
    });
    result_bytes += encoded.result_bytes;
    clock.Time("net.http.format", [&] {
      bagalg::net::HttpResponse resp;
      if (st.bag1) resp.content_type = "application/x-bag1";
      if (encoded.streamed) {
        const std::string head =
            bagalg::net::FormatHttpResponseHead(resp, /*chunked=*/true, 0);
        (void)head;
      } else {
        resp.body = std::move(encoded.body);
        const std::string bytes = bagalg::net::FormatHttpResponse(resp);
        (void)bytes;
      }
    });
    counts.AddDelta(before, Counters::Now());

    // ---- the calls RunLine makes, one at a time
    uint64_t attributed_ns = 0;
    if (st.write) {
      const std::string literal = st.text.substr(st.text.find('=') + 1);
      attributed_ns += clock.Time("lang.parse", [&] {
        (void)bagalg::lang::ParseValue(literal);
      });
    } else {
      const std::string command = st.text.substr(0, st.text.find(' '));
      const bagalg::Database& db = runner.database();
      const bagalg::Schema& schema = db.schema();
      Result<bagalg::Expr> expr = Status::Internal("unparsed");
      attributed_ns += clock.Time("lang.parse", [&] {
        expr = bagalg::lang::ParseExpr(st.query);
      });
      BAGALG_RETURN_IF_ERROR(expr.status());
      // The AnalyzeExpr call AnalyzeCost and LowerToIr make first; timed
      // as algebra.typecheck, a part of the call it is re-issued for.
      auto typecheck = [&](const bagalg::Expr& e) {
        clock.Time("algebra.typecheck", [&] {
          std::map<const bagalg::ExprNode*, bagalg::Type> node_types;
          (void)bagalg::AnalyzeExpr(e, schema, &node_types);
        });
      };
      // The journal entry and the budget preflight each run it.
      const int cost_calls = options.cost_budget > 0 ? 2 : 1;
      for (int i = 0; i < cost_calls; ++i) {
        attributed_ns += clock.Time("analysis.cost", [&] {
          (void)bagalg::analysis::AnalyzeCost(
              *expr, schema, bagalg::analysis::CostFacts::Exact(db));
        });
        typecheck(*expr);
      }
      Value value;
      if (command == "exec") {
        Result<bagalg::ir::IrPlan> plan = Status::Internal("unlowered");
        attributed_ns += clock.Time("ir.lower", [&] {
          plan = bagalg::ir::LowerToIr(*expr, db);
        });
        BAGALG_RETURN_IF_ERROR(plan.status());
        // Inside LowerToIr: Optimize, then AnalyzeExpr of the optimized
        // plan, directly and again in its cost annotation.
        Result<bagalg::Expr> optimized = Status::Internal("unoptimized");
        clock.Time("algebra.rewrite", [&] {
          std::map<std::string, size_t> applied;
          optimized = bagalg::Optimize(*expr, schema, bagalg::RewriteOptions{},
                                       &applied);
        });
        const bagalg::Expr& planned = optimized.ok() ? *optimized : *expr;
        typecheck(planned);
        typecheck(planned);
        Result<bagalg::Bag> bag = Status::Internal("unexecuted");
        attributed_ns += clock.Time("ir.exec", [&] {
          bag = bagalg::ir::ExecuteIr(*plan, db);
        });
        BAGALG_RETURN_IF_ERROR(bag.status());
        value = Value::FromBag(*bag);
      } else {
        Result<bagalg::Bag> bag = Status::Internal("unevaluated");
        attributed_ns += clock.Time("algebra.eval", [&] {
          bagalg::Evaluator evaluator;
          bag = evaluator.EvalToBag(*expr, db);
        });
        BAGALG_RETURN_IF_ERROR(bag.status());
        value = Value::FromBag(*bag);
      }
      attributed_ns += clock.Time("core.render", [&] {
        const std::string text = command == "count"
                                     ? value.bag().TotalCount().ToString()
                                     : value.ToString();
        (void)text;
      });
    }
    const int64_t unattributed =
        static_cast<int64_t>(runline_ns) - static_cast<int64_t>(attributed_ns);
    unattributed_ns += unattributed;
    if (unattributed < 0) ++unattributed_negative;
    clock.EndStatement();
    ++statements;
  }
  if (statements == 0) return Status::Internal("replay: no statements");

  ReplayReport report;
  report.statements = statements;
  report.spans = clock.span_count();
  report.unattributed_negative = unattributed_negative;
  const double n = static_cast<double>(statements);
  auto per_stmt_us = [&](const std::string& layer) {
    return static_cast<double>(clock.total_ns(layer)) / 1000.0 / n;
  };
  auto& m = report.metrics;
  for (const char* layer :
       {"net.http.parse", "net.json.decode", "net.bag1.decode",
        "net.http.format", "lang.parse", "algebra.typecheck",
        "algebra.rewrite", "analysis.cost", "ir.lower", "ir.exec",
        "algebra.eval", "core.render", "net.wire.encode_json",
        "net.wire.encode_bag1", "lang.runline"}) {
    m[std::string(layer) + "_us"] = per_stmt_us(layer);
  }
  m["lang.unattributed_us"] = static_cast<double>(unattributed_ns) / 1000.0 / n;
  m["ir.rows_per_stmt"] = static_cast<double>(counts.ir_rows) / n;
  m["ir.batches_per_stmt"] = static_cast<double>(counts.ir_batches) / n;
  m["kernel.index_hit_ratio"] =
      counts.index_probes == 0
          ? 0
          : static_cast<double>(counts.index_hits) /
                static_cast<double>(counts.index_probes);
  const uint64_t dispatches = counts.parallel + counts.serial;
  m["kernel.parallel_dispatch_ratio"] =
      dispatches == 0 ? 0
                      : static_cast<double>(counts.parallel) /
                            static_cast<double>(dispatches);
  m["governor.checkpoints_per_stmt"] = static_cast<double>(counts.checkpoints) / n;
  m["kernel.bignat_slow_ops_per_stmt"] = static_cast<double>(counts.bignat_slow) / n;
  m["net.wire.result_bytes"] = static_cast<double>(result_bytes) / n;
  if (!options.trace_path.empty()) {
    BAGALG_RETURN_IF_ERROR(clock.WriteTrace(options.trace_path));
  }
  return report;
}

}  // namespace perfbench
