#ifndef BAGALG_UTIL_GOVERNOR_H_
#define BAGALG_UTIL_GOVERNOR_H_

/// \file governor.h
/// Runtime resource governor: deadlines, memory caps, and cooperative
/// cancellation for running queries.
///
/// PR 3's static cost analyzer refuses queries it can *prove* over budget,
/// but symbolic or unknown bounds are admitted — and with powerset `P` in
/// the algebra a single admitted query can still be hyperexponential. The
/// governor is the runtime's last line of defense: a per-query budget
/// (wall-clock deadline, cumulative bytes-allocated cap, cancellation
/// token) checked cooperatively at periodic *checkpoints* inside every loop
/// that scales with bag size. A trip tears the query down through the
/// ordinary Status channel — kDeadlineExceeded, kResourceExhausted, or
/// kCancelled — never by crashing, leaking, or corrupting the session.
///
/// Propagation is by thread-local ambient scope rather than parameter
/// plumbing: the query driver installs the governor with a GovernorScope,
/// and every kernel below (including ThreadPool workers, which inherit the
/// dispatching caller's governor — see parallel.cc) reaches it through
/// CurrentGovernor(). With no governor installed every hook is a
/// branch-predictable no-op, so library users who never construct one pay
/// nothing.
///
/// Checkpoint discipline (see docs/ROBUSTNESS.md): any new loop whose trip
/// count scales with bag size must tick a CheckpointTicker once per
/// iteration (or once per emitted entry). The ticker amortizes the cost —
/// it only consults the governor every kCheckpointStride iterations — so a
/// checkpointed loop stays within the <2% overhead budget asserted by
/// bench/bench_governor.cpp.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/util/status.h"

namespace bagalg {

/// A shareable cancellation flag. Default-constructed tokens are *inert*
/// (never cancelled, Cancel() is a no-op); Create() makes a live token.
/// Copies share the flag. Cancel() is an atomic store on a pre-allocated
/// flag, so it is safe to call from a signal handler or another thread
/// while a query runs (the REPL's Ctrl-C handler does exactly that).
class CancellationToken {
 public:
  CancellationToken() = default;

  /// Makes a live token (allocates the shared flag).
  static CancellationToken Create() {
    CancellationToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// True iff this token has a flag (i.e. came from Create or a copy).
  bool valid() const { return flag_ != nullptr; }

  /// Requests cancellation. Async-signal-safe on a valid token.
  void Cancel() {
    if (flag_) flag_->store(true, std::memory_order_release);
  }

  /// Re-arms a valid token for the next query.
  void Reset() {
    if (flag_) flag_->store(false, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-query budget knobs. Zero disables the corresponding limit.
struct GovernorOptions {
  /// Wall-clock budget in nanoseconds from governor construction.
  uint64_t wall_limit_ns = 0;
  /// Cumulative bytes-allocated cap (not live bytes: accounting is
  /// monotone, which makes trips deterministic and hooks cheap).
  uint64_t memory_limit_bytes = 0;
  /// External cancellation source; inert token = not cancellable.
  CancellationToken cancel;
};

/// Process-wide trip/activity counters (cumulative, relaxed atomics).
/// Mirrored into the MetricsRegistry by obs::MirrorGovernorStats — same
/// layering as ParallelStats, keeping util free of an obs dependency.
struct GovernorStats {
  uint64_t deadline_trips = 0;
  uint64_t memcap_trips = 0;
  uint64_t cancel_trips = 0;
  uint64_t fault_trips = 0;
  uint64_t checkpoints = 0;
  uint64_t bytes_accounted = 0;
};

/// Which limit a governor tripped on. The distinction matters to operators
/// reading a query journal: kMemcap and a fault-injected allocation failure
/// both surface as kResourceExhausted Status codes, and kCancel covers both
/// a user's Ctrl-C and a fault-injected checkpoint trip — the kind
/// disambiguates them.
enum class TripKind {
  kNone = 0,
  kDeadline,
  kMemcap,
  kCancel,
  kFault,
};

/// Human-readable name ("none", "deadline", "memcap", "cancel", "fault").
const char* TripKindName(TripKind kind);

/// The typed outcome word of a statement that ended with `status` after its
/// governor tripped `trip` (kNone when nothing tripped, or when no governor
/// ran): "ok"; the trip's name ("deadline", "memcap", "cancel", "fault");
/// "budget-refused" for kBudgetExceeded; "shed" for kUnavailable; "error"
/// for everything else. The journal, the REPL and bagalgd all take the
/// word from here.
const char* StatementOutcome(const Status& status, TripKind trip);

/// The per-query governor. Construct one per statement, install it with a
/// GovernorScope for the duration of evaluation, and let checkpoints do the
/// rest. Thread-safe: pool workers under the same scope share the instance.
///
/// Trips are *sticky and first-wins*: the first failing check records its
/// Status under a mutex and flips an atomic flag; every later checkpoint on
/// any thread returns that same Status, so a tripped parallel kernel
/// unwinds all chunks with one coherent error.
class ResourceGovernor {
 public:
  explicit ResourceGovernor(const GovernorOptions& options);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// A full checkpoint: fault hooks, cancellation, memory cap, deadline —
  /// in that order. OK means "keep going". Called from CheckpointTicker
  /// every kCheckpointStride loop iterations, not per item.
  Status Check();

  /// Records `bytes` of allocation against the cap. Does not itself fail —
  /// the *next* checkpoint observes the total and trips — so allocation
  /// sites stay noexcept-ish and cheap. Also feeds the alloc fault stream.
  void AccountBytes(uint64_t bytes);

  /// Cumulative bytes accounted against this governor.
  uint64_t bytes_allocated() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// True iff some check already failed; the recorded Status is what every
  /// subsequent Check() returns.
  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// Which limit tripped first (kNone while running / after a clean run).
  TripKind trip_kind() const {
    return trip_kind_.load(std::memory_order_acquire);
  }

  /// Process-wide cumulative counters across all governors.
  static GovernorStats Stats();

 private:
  Status Trip(Status status, std::atomic<uint64_t>& counter, TripKind kind);

  /// Absolute steady-clock deadline; time_point::max() when no wall limit.
  std::chrono::steady_clock::time_point deadline_;
  uint64_t memory_limit_bytes_;
  CancellationToken cancel_;

  std::atomic<uint64_t> bytes_{0};
  /// Set by AccountBytes when the alloc fault stream fires; consumed by the
  /// next Check so the trip surfaces through the normal checkpoint channel.
  std::atomic<bool> alloc_fault_{false};
  std::atomic<bool> tripped_{false};
  std::atomic<TripKind> trip_kind_{TripKind::kNone};
  std::mutex trip_mu_;
  Status trip_status_;
};

namespace internal {
/// The ambient governor for this thread (nullptr = ungoverned). Exposed
/// only for GovernorScope and the thread pool's worker propagation.
/// inline+constinit: constant initialization means direct TLS access with
/// no wrapper function (whose synthesized reference UBSan's null check
/// flags under GCC) and no per-access init guard on the hot no-op path.
inline constinit thread_local ResourceGovernor* g_current_governor = nullptr;
}  // namespace internal

/// The governor in effect on this thread, or nullptr.
inline ResourceGovernor* CurrentGovernor() {
  return internal::g_current_governor;
}

/// RAII installer for the ambient governor. Installing nullptr is a no-op
/// (the outer scope, if any, stays in effect) so callers can pass an
/// optional governor straight through.
class GovernorScope {
 public:
  explicit GovernorScope(ResourceGovernor* governor)
      : previous_(internal::g_current_governor), installed_(governor != nullptr) {
    if (installed_) internal::g_current_governor = governor;
  }
  ~GovernorScope() {
    if (installed_) internal::g_current_governor = previous_;
  }
  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ResourceGovernor* previous_;
  bool installed_;
};

/// Checkpoint against the ambient governor; OK when ungoverned.
inline Status GovernorCheckpoint() {
  ResourceGovernor* gov = internal::g_current_governor;
  return gov == nullptr ? Status::Ok() : gov->Check();
}

/// Accounts bytes against the ambient governor; no-op when ungoverned.
inline void GovernorAccountBytes(uint64_t bytes) {
  ResourceGovernor* gov = internal::g_current_governor;
  if (gov != nullptr) gov->AccountBytes(bytes);
}

/// Iterations between full governor checks in checkpointed loops. Small
/// enough that trips land within tens of microseconds of the limit, large
/// enough that the per-check cost (a steady_clock read plus two relaxed
/// fetch-adds, ~50ns) amortizes below the overhead budget even for the
/// cheapest kernel loops (~6ns/iteration merge walks).
inline constexpr uint64_t kCheckpointStride = 512;

/// Builders and kernels skip byte accounting for outputs smaller than this
/// many entries: tiny bags (the per-subbag case in powerset enumeration)
/// are already bounded by their enumeration's own ticker, and accounting
/// them individually would dominate the kernels' hot paths.
inline constexpr size_t kGovernorAccountMinEntries = 32;

/// Per-loop checkpoint helper: call Due() once per iteration and Flush()
/// when it returns true; every kCheckpointStride-th call charges the
/// elapsed iterations' bytes to the governor and runs a full Check.
/// Stack-local, one per loop (or one per pool chunk), never shared between
/// threads.
///
/// The hot path is a single decrement-and-branch. Anything more — a null
/// test, a byte accumulation, let alone constructing an OK Status (with
/// its empty-string member) — measurably slows the cheapest kernels: the
/// ~6ns/iteration merge walk paid >30% for a combined tick-and-check API.
/// Per-tick bytes are therefore a construction-time constant, multiplied
/// back in at Flush, and the ungoverned case decrements from 2^64-1
/// instead of branching (at one tick per nanosecond that countdown lasts
/// five centuries; if it ever did reach zero, Flush is a no-op).
/// Canonical use:
///
///   CheckpointTicker ticker(sizeof(BagEntry));  // bytes charged per tick
///   for (...) {
///     if (ticker.Due()) BAGALG_RETURN_IF_ERROR(ticker.Flush());
///     ...
///   }
class CheckpointTicker {
 public:
  /// Binds the ambient governor; `bytes_per_tick` is charged for every
  /// Due() call at the next Flush.
  explicit CheckpointTicker(uint64_t bytes_per_tick = 0)
      : CheckpointTicker(internal::g_current_governor, bytes_per_tick) {}
  CheckpointTicker(ResourceGovernor* governor, uint64_t bytes_per_tick)
      : governor_(governor),
        bytes_per_tick_(bytes_per_tick),
        countdown_(governor == nullptr ? kUngovernedCountdown
                                       : kCheckpointStride) {}

  /// Records one iteration; true when the stride boundary was reached and
  /// Flush() must run. One decrement and one predictable branch.
  bool Due() { return --countdown_ == 0; }

  /// Charges the iterations since the last flush and checks immediately
  /// (stride boundaries, loop epilogues, before committing chunk output).
  Status Flush() {
    if (governor_ == nullptr) {
      countdown_ = kUngovernedCountdown;
      return Status::Ok();
    }
    const uint64_t ticks = kCheckpointStride - countdown_;
    countdown_ = kCheckpointStride;
    if (ticks != 0 && bytes_per_tick_ != 0) {
      governor_->AccountBytes(ticks * bytes_per_tick_);
    }
    return governor_->Check();
  }

  bool active() const { return governor_ != nullptr; }

 private:
  static constexpr uint64_t kUngovernedCountdown = ~uint64_t{0};

  ResourceGovernor* governor_;
  uint64_t bytes_per_tick_;
  uint64_t countdown_;
};

/// Batched sibling of CheckpointTicker for batch-at-a-time executors (the
/// IR engine's vectorized pipelines): one OnBatch(n) call per produced
/// batch replaces n per-row Due() calls. It only checks; it charges no
/// bytes — the IR's memory is accounted where it materializes, through
/// Bag::Builder. Amortization works the other way around from the per-row
/// ticker: instead of counting iterations down to a stride boundary, items
/// accumulate until at least kCheckpointStride are pending, then one Check
/// covers them all. A 1024-row batch therefore pays at most three
/// branch-predictable compares and one governor check — the per-row engine
/// pays 1024 decrements for the same work.
class BatchCheckpointTicker {
 public:
  /// Binds the ambient governor.
  BatchCheckpointTicker()
      : BatchCheckpointTicker(internal::g_current_governor) {}
  explicit BatchCheckpointTicker(ResourceGovernor* governor)
      : governor_(governor) {}

  /// Records `items` processed iterations; checks the governor once the
  /// accumulated count reaches the stride. The common full-batch case runs
  /// exactly one check per batch.
  Status OnBatch(uint64_t items) {
    if (governor_ == nullptr) return Status::Ok();
    pending_ += items;
    if (pending_ < kCheckpointStride) return Status::Ok();
    return Flush();
  }

  /// Clears the pending items and checks immediately (loop epilogues, and
  /// whenever a batch boundary must observe a trip promptly).
  Status Flush() {
    if (governor_ == nullptr) return Status::Ok();
    pending_ = 0;
    return governor_->Check();
  }

  bool active() const { return governor_ != nullptr; }

 private:
  ResourceGovernor* governor_;
  uint64_t pending_ = 0;
};

}  // namespace bagalg

#endif  // BAGALG_UTIL_GOVERNOR_H_
