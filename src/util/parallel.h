#ifndef BAGALG_UTIL_PARALLEL_H_
#define BAGALG_UTIL_PARALLEL_H_

/// \file parallel.h
/// Compatibility stub: every bag kernel runs serially, and there is no
/// thread pool. This header exists only because perfbench/replay.cc reads
/// ThreadPool::Stats() for its `kernel.parallel_dispatch_ratio`, which is
/// therefore always 0. It goes with the next change to the benchmark.

#include <cstdint>

namespace bagalg {

/// Dispatch counters of the removed pool; always zero.
struct ParallelStats {
  uint64_t parallel_dispatches = 0;
  uint64_t serial_dispatches = 0;
};

class ThreadPool {
 public:
  static ParallelStats Stats() { return ParallelStats{}; }
};

}  // namespace bagalg

#endif  // BAGALG_UTIL_PARALLEL_H_
