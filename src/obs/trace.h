#ifndef BAGALG_OBS_TRACE_H_
#define BAGALG_OBS_TRACE_H_

/// \file trace.h
/// Low-overhead query tracing for the bagalg engine.
///
/// A Tracer collects TraceEvents; an RAII Span measures one region (wall
/// time, thread CPU time, nesting depth) and carries typed attributes such
/// as a result bag's distinct count or multiplicity bit-length. When a
/// tracer is disabled — or when instrumented code holds a null Tracer* —
/// the hot path pays exactly one branch and no allocation: StartSpan on a
/// disabled tracer returns an inactive Span whose every method is a no-op.
///
/// Finished traces export to the Chrome trace-event JSON format (load the
/// file in chrome://tracing or https://ui.perfetto.dev) via
/// WriteChromeTrace, so evaluator node applications, fixpoint iterations,
/// and exec operator lifecycles render as a nested flame graph.
///
/// Every span carries a process-unique id and the id of the innermost span
/// open on its thread when it started (its parent). The parent link comes
/// from a thread-local TraceContext that spans maintain automatically.
///
/// Thread safety: Tracer is internally synchronized (spans from multiple
/// threads interleave safely); a Span itself must stay on one thread.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/result.h"

namespace bagalg::obs {

/// Monotonic wall clock, nanoseconds from an arbitrary epoch.
uint64_t MonotonicNowNs();

/// Per-thread CPU clock, nanoseconds (0 where unsupported).
uint64_t ThreadCpuNowNs();

/// A typed span/event attribute value.
using AttrValue = std::variant<int64_t, uint64_t, double, std::string>;

/// One finished span.
struct TraceEvent {
  std::string name;
  std::string category;
  /// Process-unique span id (1-based; 0 never assigned).
  uint64_t id = 0;
  /// Id of the innermost span open when this one started; 0 = root.
  uint64_t parent_id = 0;
  /// Start, nanoseconds since the tracer's epoch.
  uint64_t start_ns = 0;
  /// Wall-clock duration.
  uint64_t wall_ns = 0;
  /// Thread CPU time consumed while the span was open.
  uint64_t cpu_ns = 0;
  /// Thread the span ran on.
  uint64_t tid = 0;
  /// Nesting depth at open time (0 = a root span).
  uint32_t depth = 0;
  std::vector<std::pair<std::string, AttrValue>> attrs;
};

class Tracer;

/// What a new span on this thread inherits: the tracer the enclosing span
/// reports to, the enclosing span's id, and the nesting depth. Default
/// (tracer == nullptr) means "no enclosing span".
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t parent_span_id = 0;
  uint32_t depth = 0;
};

/// RAII handle for one open span. Inactive (default-constructed or from a
/// disabled tracer) spans ignore all calls. Records into the tracer on End()
/// or destruction, whichever comes first.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  bool active() const { return tracer_ != nullptr; }

  /// The span's process-unique id (0 when inactive).
  uint64_t id() const { return event_.id; }

  /// Attaches a typed attribute (kept in insertion order).
  void AddAttr(std::string_view name, uint64_t value);
  void AddAttr(std::string_view name, int64_t value);
  void AddAttr(std::string_view name, double value);
  void AddAttr(std::string_view name, std::string_view value);

  /// Ends the span now and records it; later calls are no-ops.
  void End();

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string_view name, std::string_view category);

  Tracer* tracer_ = nullptr;
  TraceEvent event_;
  /// Ambient context to restore when this span ends (LIFO case); ends out
  /// of order leave the context to the still-open inner span.
  TraceContext previous_context_;
  uint64_t wall_start_ns_ = 0;
  uint64_t cpu_start_ns_ = 0;
};

/// Opens a span on the ambient context's tracer — the tracer of the
/// innermost open span on this thread — falling back to the global tracer.
/// Inactive when neither is enabled. This is how the kernels trace: they
/// land in whichever trace the query driver is collecting.
Span StartAmbientSpan(std::string_view name, std::string_view category = "");

class FlightRecorder;

/// Collects spans. Construction chooses the initial enabled state; a
/// disabled tracer hands out inactive spans.
class Tracer {
 public:
  explicit Tracer(bool enabled = true);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Opens a span (inactive if the tracer is disabled).
  Span StartSpan(std::string_view name, std::string_view category = "");

  /// Copies the finished events collected so far.
  std::vector<TraceEvent> SnapshotEvents() const;
  /// Moves the finished events out, leaving the tracer empty.
  std::vector<TraceEvent> TakeEvents();
  /// Number of finished events held.
  size_t event_count() const;
  /// Events discarded because the buffer cap was reached.
  uint64_t dropped_count() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Discards all buffered events and the dropped counter.
  void Clear();

  /// Caps the event buffer (default 1M events); further spans are counted
  /// in dropped_count() but not stored. Safe to call while spans record
  /// concurrently (the cap is atomic; Record reads it once per event).
  void set_max_events(size_t n) {
    max_events_.store(n, std::memory_order_relaxed);
  }
  size_t max_events() const {
    return max_events_.load(std::memory_order_relaxed);
  }

  /// Mirrors every finished span into `recorder` (nullptr detaches). The
  /// recorder must outlive the tracer or be detached first.
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_.store(recorder, std::memory_order_release);
  }
  FlightRecorder* flight_recorder() const {
    return flight_.load(std::memory_order_acquire);
  }

  /// With buffering off, finished spans still feed the flight recorder but
  /// are not accumulated in the event buffer — the always-on black-box
  /// mode: bounded memory, no per-statement Clear() needed.
  void set_buffering(bool on) {
    buffering_.store(on, std::memory_order_relaxed);
  }
  bool buffering() const {
    return buffering_.load(std::memory_order_relaxed);
  }

 private:
  friend class Span;
  void Record(TraceEvent event);

  std::atomic<bool> enabled_;
  std::atomic<bool> buffering_{true};
  const uint64_t epoch_ns_;
  std::atomic<FlightRecorder*> flight_{nullptr};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::atomic<size_t> max_events_{size_t{1} << 20};
  std::atomic<uint64_t> dropped_{0};
};

/// Writes events as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}, "X" complete events, microsecond timestamps).
void WriteChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os);

/// Snapshot + export to a file. IO errors surface as InvalidArgument.
Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path);

/// The process-wide tracer, constructed disabled. Instrumented code that is
/// not handed an explicit tracer may consult this one.
Tracer& GlobalTracer();

/// &GlobalTracer() when it is enabled, nullptr otherwise — the natural value
/// to pass to Evaluator::set_tracer and exec::ExecOptions.
Tracer* GlobalTracerIfEnabled();

/// Benchmark/CLI hook: scans argv for "--bagalg_trace=FILE". When present,
/// removes the flag from argv (so google-benchmark does not reject it),
/// enables the global tracer, and registers an atexit handler that writes
/// the Chrome trace to FILE. Returns true iff the flag was found.
bool EnableGlobalTraceFromArgs(int* argc, char** argv);

/// Writes the global tracer's events to the path configured by
/// EnableGlobalTraceFromArgs (no-op OK status if none was set).
Status FlushGlobalTrace();

}  // namespace bagalg::obs

#endif  // BAGALG_OBS_TRACE_H_
