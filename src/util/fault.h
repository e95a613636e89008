#ifndef BAGALG_UTIL_FAULT_H_
#define BAGALG_UTIL_FAULT_H_

/// \file fault.h
/// Deterministic fault injection for the runtime resource governor.
///
/// The governor (util/governor.h) turns would-be crashes into typed errors,
/// but the abort paths it creates — mid-merge, mid-product,
/// mid-powerset-odometer — are exactly the paths ordinary tests never walk.
/// This layer forces them deterministically: a process-wide armed fault
/// fires at the Nth accounting/checkpoint event (or, in probabilistic mode,
/// at a seeded pseudo-random subset of events), so a sweep over N visits
/// every abort site and a sanitizer build proves each one unwinds cleanly.
///
/// Faults are armed either programmatically (tests) or from the
/// BAGALG_FAULT environment variable, read once at first use:
///
///   BAGALG_FAULT="alloc:after=42"          fail the 43rd accounted
///                                          allocation event (0-based)
///   BAGALG_FAULT="checkpoint:after=7"      trip the 8th governor checkpoint
///   BAGALG_FAULT="alloc:p=0.001:seed=9"    fail each allocation event with
///                                          probability 1/1000, decided by a
///                                          seeded hash of the event index
///   BAGALG_FAULT="io:p=0.05:seed=7"        disturb each network I/O event
///                                          (read/write/accept in src/net)
///                                          with probability 1/20
///
/// Event counters are process-global atomics, so exactly one thread observes
/// the Nth event no matter how the work is scheduled ("thread-stable"), and
/// the probabilistic mode derives its verdict purely from (seed, event
/// index), making a given arming reproducible run over run. Faults on the
/// alloc/checkpoint streams only fire underneath an active ResourceGovernor
/// — a process with no governor installed never trips. The io stream models
/// the *network*, which misbehaves whether or not a query is running, so io
/// faults fire whenever armed: every net-layer read, write, and accept
/// consults InjectIoFault, and a fired event is downgraded to either a
/// short transfer (the syscall moves 1 byte, exercising every retry loop)
/// or a hard failure (ECONNRESET-shaped for reads, EPIPE-shaped for writes,
/// a transient refusal for accepts) — the choice is itself a deterministic
/// hash of the event index.

#include <cstdint>
#include <string_view>

#include "src/util/result.h"

namespace bagalg::fault {

/// Which instrumented event stream a fault attaches to.
enum class FaultPoint {
  /// Memory-accounting events (ResourceGovernor::AccountBytes call sites in
  /// core/value.cc, util/bignat.cc, and the kernel tickers).
  kAlloc,
  /// Full governor checkpoints (ResourceGovernor::Check).
  kCheckpoint,
  /// Network I/O events (every read/write/accept in src/net/io.cc). Unlike
  /// the streams above, io faults do not require an active governor.
  kIo,
};

/// How a fired io-stream event disturbs the syscall it landed on.
enum class IoFaultKind {
  /// Not fired: perform the operation normally.
  kNone,
  /// Short transfer: move at most one byte (reads and writes); accepts
  /// treat this as a transient failure, since accept has no short form.
  kShort,
  /// Hard failure: simulated peer disconnect on reads, broken pipe on
  /// writes, transient refusal on accepts.
  kError,
};

/// A parsed fault arming. Exactly one of `after` (one-shot index) or
/// `probability` (per-event chance) is active; `probability > 0` wins.
struct FaultSpec {
  FaultPoint point = FaultPoint::kAlloc;
  /// One-shot mode: fire on the event with this 0-based global index.
  uint64_t after = 0;
  /// Probabilistic mode: per-event firing chance in (0, 1]; 0 = one-shot.
  double probability = 0.0;
  /// Seed for the probabilistic verdict hash.
  uint64_t seed = 0;

  /// Parses the BAGALG_FAULT syntax shown in the file comment.
  static Result<FaultSpec> Parse(std::string_view text);
};

/// Arms `spec`, resetting the event and fire counters. Overrides any arming
/// taken from the environment.
void Configure(const FaultSpec& spec);

/// Disarms fault injection (the environment variable is not re-read).
void Disarm();

/// True iff a fault is currently armed (reads BAGALG_FAULT on first call).
bool Enabled();

/// Total events observed / faults fired since the last Configure/Disarm.
uint64_t EventCount();
uint64_t FireCount();

/// Governor-internal hooks: record one event on the given stream and return
/// true iff the armed fault fires on it. Cheap no-ops when disarmed.
bool ShouldFailAlloc();
bool ShouldFailCheckpoint();

/// Net-layer hook: records one event on the io stream and returns the
/// injected disturbance (kNone when disarmed or the event did not fire).
/// The kind of a fired event is a pure function of (seed, event index), so
/// a given arming reproduces the same fault schedule run over run.
IoFaultKind InjectIoFault();

}  // namespace bagalg::fault

#endif  // BAGALG_UTIL_FAULT_H_
