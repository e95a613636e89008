#include "src/util/governor.h"

#include <string>

#include "src/util/fault.h"

namespace bagalg {
namespace {

// Process-wide cumulative counters behind GovernorStats. Relaxed ordering:
// these are monitoring data, never synchronization.
std::atomic<uint64_t> g_deadline_trips{0};
std::atomic<uint64_t> g_memcap_trips{0};
std::atomic<uint64_t> g_cancel_trips{0};
std::atomic<uint64_t> g_fault_trips{0};
std::atomic<uint64_t> g_checkpoints{0};
std::atomic<uint64_t> g_bytes_accounted{0};

}  // namespace

ResourceGovernor::ResourceGovernor(const GovernorOptions& options)
    : deadline_(options.wall_limit_ns == 0
                    ? std::chrono::steady_clock::time_point::max()
                    : std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(options.wall_limit_ns)),
      memory_limit_bytes_(options.memory_limit_bytes),
      cancel_(options.cancel) {}

const char* TripKindName(TripKind kind) {
  switch (kind) {
    case TripKind::kNone:
      return "none";
    case TripKind::kDeadline:
      return "deadline";
    case TripKind::kMemcap:
      return "memcap";
    case TripKind::kCancel:
      return "cancel";
    case TripKind::kFault:
      return "fault";
  }
  return "none";
}

const char* StatementOutcome(const Status& status, TripKind trip) {
  if (status.ok()) return "ok";
  if (trip != TripKind::kNone) return TripKindName(trip);
  switch (status.code()) {
    case StatusCode::kBudgetExceeded:
      return "budget-refused";
    case StatusCode::kUnavailable:
      return "shed";
    default:
      return "error";
  }
}

Status ResourceGovernor::Trip(Status status, std::atomic<uint64_t>& counter,
                              TripKind kind) {
  std::lock_guard<std::mutex> lock(trip_mu_);
  // First trip wins: a deadline trip on one pool worker and a memcap trip
  // on another must surface as one coherent error, and re-checks after the
  // trip must keep reporting it (sticky).
  if (!tripped_.load(std::memory_order_relaxed)) {
    counter.fetch_add(1, std::memory_order_relaxed);
    trip_status_ = std::move(status);
    trip_kind_.store(kind, std::memory_order_release);
    tripped_.store(true, std::memory_order_release);
  }
  return trip_status_;
}

Status ResourceGovernor::Check() {
  g_checkpoints.fetch_add(1, std::memory_order_relaxed);
  if (tripped_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(trip_mu_);
    return trip_status_;
  }
  if (fault::ShouldFailCheckpoint()) {
    return Trip(Status::Cancelled("fault injection: checkpoint trip"),
                g_fault_trips, TripKind::kFault);
  }
  if (alloc_fault_.load(std::memory_order_relaxed)) {
    return Trip(
        Status::ResourceExhausted("fault injection: allocation failure"),
        g_fault_trips, TripKind::kFault);
  }
  if (cancel_.cancelled()) {
    return Trip(Status::Cancelled("query cancelled"), g_cancel_trips,
                TripKind::kCancel);
  }
  if (memory_limit_bytes_ != 0) {
    const uint64_t bytes = bytes_.load(std::memory_order_relaxed);
    if (bytes > memory_limit_bytes_) {
      return Trip(
          Status::ResourceExhausted("memory limit exceeded: accounted " +
                                    std::to_string(bytes) + " bytes > cap " +
                                    std::to_string(memory_limit_bytes_)),
          g_memcap_trips, TripKind::kMemcap);
    }
  }
  if (deadline_ != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline_) {
    return Trip(Status::DeadlineExceeded("wall-clock deadline exceeded"),
                g_deadline_trips, TripKind::kDeadline);
  }
  return Status::Ok();
}

void ResourceGovernor::AccountBytes(uint64_t bytes) {
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  g_bytes_accounted.fetch_add(bytes, std::memory_order_relaxed);
  if (fault::ShouldFailAlloc()) {
    // Defer the actual trip to the next Check(): allocation sites are not
    // Status-returning, so the fault surfaces through the normal
    // checkpoint channel on whichever thread checks next.
    alloc_fault_.store(true, std::memory_order_relaxed);
  }
}

GovernorStats ResourceGovernor::Stats() {
  GovernorStats stats;
  stats.deadline_trips = g_deadline_trips.load(std::memory_order_relaxed);
  stats.memcap_trips = g_memcap_trips.load(std::memory_order_relaxed);
  stats.cancel_trips = g_cancel_trips.load(std::memory_order_relaxed);
  stats.fault_trips = g_fault_trips.load(std::memory_order_relaxed);
  stats.checkpoints = g_checkpoints.load(std::memory_order_relaxed);
  stats.bytes_accounted = g_bytes_accounted.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace bagalg
