#ifndef BAGALG_OBS_METRICS_H_
#define BAGALG_OBS_METRICS_H_

/// \file metrics.h
/// A process-wide registry of named counters, gauges, and histograms.
///
/// Instruments are created on first lookup and live for the registry's
/// lifetime, so callers cache the returned pointer and update it lock-free
/// (all instruments are built on std::atomic). Snapshot() captures a
/// point-in-time copy that can be merged with snapshots from other
/// registries/processes (shards), rendered as text, or exported as a flat
/// JSON document — the substrate behind the REPL's `\metrics` command and
/// the bench harness's perf trajectory files.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bagalg::obs {

/// Monotonically increasing count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the counter to `target` if it is currently below it (CAS max).
  /// This is how external cumulative totals (GovernorStats, BigNat slow ops)
  /// are mirrored as counters: concurrent mirrors with stale snapshots can
  /// never move the value backwards, preserving monotonicity.
  void RaiseTo(uint64_t target) {
    uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < target &&
           !value_.compare_exchange_weak(seen, target,
                                         std::memory_order_relaxed)) {
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A settable signed level (bytes in use, open cursors, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Power-of-two histogram: bucket i counts observations whose bit-length is
/// i (value 0 lands in bucket 0, 1 in bucket 1, 2..3 in bucket 2, ...).
/// Coarse but merge-friendly and allocation-free.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  /// Trailing zero buckets trimmed.
  std::vector<uint64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimates the q-quantile (q in [0,1], clamped) by locating the bucket
  /// containing the ceil(q*count)-th observation and interpolating linearly
  /// across that bucket's value range [2^(i-1), 2^i - 1] (bucket 0 is the
  /// single value 0). The top of the crossing bucket is capped at the
  /// recorded max, so Percentile(1.0) returns max exactly and a
  /// single-observation histogram returns that observation for every q.
  /// Returns 0 for an empty histogram.
  double Percentile(double q) const;
};

/// Inclusive upper bound of pow-2 histogram bucket i (the largest value
/// whose bit-width is i): 0 for bucket 0, 2^i - 1 otherwise. These are the
/// `le` labels of the Prometheus exposition.
uint64_t HistogramBucketUpperBound(size_t i);

/// Point-in-time copy of a whole registry. Mergeable: counters and
/// histograms add; gauges add too (the shard-aggregation reading).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void Merge(const MetricsSnapshot& other);

  /// Flat JSON: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
  /// Human-readable flat dump, one instrument per line, sorted by name.
  std::string ToString() const;
  /// Prometheus text exposition format (version 0.0.4): every instrument
  /// emitted with a `# TYPE` line and a `bagalg_`-prefixed sanitized name;
  /// counters get the `_total` suffix, histograms expand into cumulative
  /// `_bucket{le="..."}` series (le-labels from the pow-2 bucket bounds,
  /// `+Inf` included) plus `_sum` and `_count`. The future `bagalgd`
  /// `/metrics` endpoint serves exactly this string.
  std::string ToPrometheusText() const;
};

/// Thread-safe instrument registry. Returned pointers remain valid for the
/// registry's lifetime.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered instrument (names stay registered).
  void Reset();

 private:
  mutable std::mutex mu_;
  // std::map never relocates mapped values, so handed-out pointers stay
  // valid as the maps grow.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// The process-wide registry used by the rewriter, exec engine, and REPL.
MetricsRegistry& GlobalMetrics();

/// Mirrors the cumulative ResourceGovernor and fault-injection totals into
/// GlobalMetrics() *counters* (`governor.deadline.trips`,
/// `governor.memcap.trips`, `governor.cancel.trips`, `governor.fault.trips`,
/// `governor.checkpoints`, `governor.bytes_accounted`,
/// `governor.fault.events`) via Counter::RaiseTo — they are monotone
/// process-wide totals, which is what Prometheus counter typing requires.
/// Called by the query drivers (eval, exec, REPL) and kernel scopes after
/// governed work; cheap enough to call unconditionally but skipped on
/// ungoverned hot paths.
void MirrorGovernorStats();

}  // namespace bagalg::obs

#endif  // BAGALG_OBS_METRICS_H_
