#ifndef BAGALG_OBS_FLIGHT_H_
#define BAGALG_OBS_FLIGHT_H_

/// \file flight.h
/// A fixed-size ring buffer of recently finished spans — the engine's
/// black box. Attach one to a Tracer with set_flight_recorder and every
/// finished span is mirrored into the ring regardless of whether the
/// tracer buffers events, so the last K spans before a governor trip or
/// fault-injection abort survive the statement's teardown and can be
/// dumped alongside the error (see ScriptRunner and docs/ROBUSTNESS.md).
///
/// Writers claim a slot with a single atomic fetch-add; the per-slot copy
/// is guarded by that slot's own mutex, so concurrent writers only contend
/// when the ring wraps onto the same slot (or with a reader copying it).
/// There is deliberately no global lock: recording stays cheap and
/// TSan-clean under bagalgd's concurrent lanes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace bagalg::obs {

/// A compact copy of one finished span, as retained by the ring.
struct FlightRecord {
  /// 1-based global record order (monotone across wraps).
  uint64_t seq = 0;
  uint64_t id = 0;
  uint64_t parent_id = 0;
  uint32_t depth = 0;
  uint64_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  std::string name;
  std::string category;
  /// The span's "error" attribute, when it carried one (eval spans attach
  /// it on a failed node application).
  std::string error;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Mirrors one finished span into the ring (no-op when disabled).
  void Record(const TraceEvent& event);

  /// Copies the retained records, oldest first.
  std::vector<FlightRecord> Snapshot() const;

  /// Empties the ring (the seq counter keeps running).
  void Clear();

  /// Spans recorded since construction (>= capacity means the ring wrapped).
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    mutable std::mutex mu;
    FlightRecord record;  // seq == 0 means the slot is empty
  };

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> head_{0};
  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
};

/// Renders a snapshot as the human-readable dump printed on statement
/// abort: the retained spans oldest-first, then the ancestry chain
/// (root -> aborting span) of the most recent errored span — or, when no
/// span carried an error attribute, of the most recent span.
std::string FormatFlightDump(const std::vector<FlightRecord>& records);

}  // namespace bagalg::obs

#endif  // BAGALG_OBS_FLIGHT_H_
