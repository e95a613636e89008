#include "src/obs/trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "src/obs/flight.h"
#include "src/obs/json.h"

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#endif

namespace bagalg::obs {

namespace {

/// The ambient context new spans inherit. Shared across tracers: a thread
/// realistically reports into one tracer at a time, and the parent link is
/// an attribution aid, not ownership.
thread_local TraceContext tls_context;

/// Process-wide span id allocator; 0 is reserved for "no parent".
std::atomic<uint64_t> g_next_span_id{1};

uint64_t CurrentTid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

Span StartAmbientSpan(std::string_view name, std::string_view category) {
  Tracer* tracer = tls_context.tracer;
  if (tracer == nullptr) tracer = GlobalTracerIfEnabled();
  if (tracer == nullptr) return Span();
  return tracer->StartSpan(name, category);
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNowNs() {
#if defined(__linux__)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

// ----------------------------------------------------------------- Span

Span::Span(Tracer* tracer, std::string_view name, std::string_view category)
    : tracer_(tracer) {
  event_.name.assign(name);
  event_.category.assign(category);
  event_.tid = CurrentTid();
  event_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  event_.parent_id = tls_context.parent_span_id;
  event_.depth = tls_context.depth;
  previous_context_ = tls_context;
  tls_context = TraceContext{tracer, event_.id, event_.depth + 1};
  cpu_start_ns_ = ThreadCpuNowNs();
  wall_start_ns_ = MonotonicNowNs();
  event_.start_ns = wall_start_ns_;  // rebased to the tracer epoch in End()
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      event_(std::move(other.event_)),
      previous_context_(other.previous_context_),
      wall_start_ns_(other.wall_start_ns_),
      cpu_start_ns_(other.cpu_start_ns_) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this == &other) return *this;
  End();
  tracer_ = other.tracer_;
  event_ = std::move(other.event_);
  previous_context_ = other.previous_context_;
  wall_start_ns_ = other.wall_start_ns_;
  cpu_start_ns_ = other.cpu_start_ns_;
  other.tracer_ = nullptr;
  return *this;
}

void Span::AddAttr(std::string_view name, uint64_t value) {
  if (tracer_ == nullptr) return;
  event_.attrs.emplace_back(std::string(name), AttrValue(value));
}

void Span::AddAttr(std::string_view name, int64_t value) {
  if (tracer_ == nullptr) return;
  event_.attrs.emplace_back(std::string(name), AttrValue(value));
}

void Span::AddAttr(std::string_view name, double value) {
  if (tracer_ == nullptr) return;
  event_.attrs.emplace_back(std::string(name), AttrValue(value));
}

void Span::AddAttr(std::string_view name, std::string_view value) {
  if (tracer_ == nullptr) return;
  event_.attrs.emplace_back(std::string(name),
                            AttrValue(std::string(value)));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  // Restore the ambient context only if this span is still the innermost
  // one; out-of-order ends (an operator span closed while a sibling stays
  // open) leave the context with the span that is actually innermost.
  if (tls_context.parent_span_id == event_.id) {
    tls_context = previous_context_;
  }
  uint64_t wall_end = MonotonicNowNs();
  uint64_t cpu_end = ThreadCpuNowNs();
  event_.wall_ns = wall_end - wall_start_ns_;
  event_.cpu_ns = cpu_end >= cpu_start_ns_ ? cpu_end - cpu_start_ns_ : 0;
  event_.start_ns = wall_start_ns_ >= tracer->epoch_ns_
                        ? wall_start_ns_ - tracer->epoch_ns_
                        : 0;
  tracer->Record(std::move(event_));
}

// ---------------------------------------------------------------- Tracer

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_ns_(MonotonicNowNs()) {}

Span Tracer::StartSpan(std::string_view name, std::string_view category) {
  if (!enabled()) return Span();
  return Span(this, name, category);
}

void Tracer::Record(TraceEvent event) {
  if (FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
    flight->Record(event);
  }
  if (!buffering_.load(std::memory_order_relaxed)) return;
  const size_t cap = max_events_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= cap) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::SnapshotEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<TraceEvent> Tracer::TakeEvents() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.swap(events_);
  return out;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- exporters

namespace {

void WriteAttrValue(std::ostream& os, const AttrValue& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    os << *i;
  } else if (const auto* u = std::get_if<uint64_t>(&value)) {
    os << *u;
  } else if (const auto* d = std::get_if<double>(&value)) {
    WriteJsonNumber(os, *d);
  } else {
    os << JsonQuote(std::get<std::string>(value));
  }
}

}  // namespace

void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":" << JsonQuote(e.name) << ",\"cat\":"
       << JsonQuote(e.category.empty() ? "bagalg" : e.category)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (e.tid % 1000000)
       << ",\"ts\":";
    WriteJsonNumber(os, static_cast<double>(e.start_ns) / 1000.0);
    os << ",\"dur\":";
    WriteJsonNumber(os, static_cast<double>(e.wall_ns) / 1000.0);
    os << ",\"args\":{\"cpu_us\":";
    WriteJsonNumber(os, static_cast<double>(e.cpu_ns) / 1000.0);
    os << ",\"depth\":" << e.depth << ",\"id\":" << e.id
       << ",\"parent\":" << e.parent_id;
    for (const auto& [name, value] : e.attrs) {
      os << "," << JsonQuote(name) << ":";
      WriteAttrValue(os, value);
    }
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open trace file " + path);
  }
  WriteChromeTrace(tracer.SnapshotEvents(), file);
  file.flush();
  if (!file) {
    return Status::InvalidArgument("failed writing trace file " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------- global tracer

Tracer& GlobalTracer() {
  static Tracer tracer(/*enabled=*/false);
  return tracer;
}

Tracer* GlobalTracerIfEnabled() {
  Tracer& t = GlobalTracer();
  return t.enabled() ? &t : nullptr;
}

namespace {

std::string& GlobalTracePath() {
  static std::string path;
  return path;
}

void AtExitFlush() { (void)FlushGlobalTrace(); }

}  // namespace

bool EnableGlobalTraceFromArgs(int* argc, char** argv) {
  constexpr char kFlag[] = "--bagalg_trace=";
  constexpr size_t kFlagLen = sizeof(kFlag) - 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], kFlag, kFlagLen) != 0) continue;
    GlobalTracePath() = argv[i] + kFlagLen;
    for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
    --*argc;
    GlobalTracer().set_enabled(true);
    std::atexit(AtExitFlush);
    return true;
  }
  return false;
}

Status FlushGlobalTrace() {
  const std::string& path = GlobalTracePath();
  if (path.empty()) return Status::Ok();
  return WriteChromeTraceFile(GlobalTracer(), path);
}

}  // namespace bagalg::obs
