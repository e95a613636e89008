#include "src/util/parallel.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/util/governor.h"

namespace bagalg {

namespace {

// Set while the current thread is executing a pool task; nested parallel
// sections detect it and run inline so the pool cannot deadlock on itself.
thread_local bool tls_in_pool_worker = false;

std::atomic<uint64_t> g_tasks_spawned{0};
std::atomic<uint64_t> g_parallel_dispatches{0};
std::atomic<uint64_t> g_serial_dispatches{0};

unsigned ThreadsFromEnvironment() {
  const char* env = std::getenv("BAGALG_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 0;
  return static_cast<unsigned>(v);
}

unsigned ResolveThreadCount(unsigned requested) {
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return requested;
}

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;          // guarded by g_global_mu
std::atomic<ThreadPool*> g_global_pool_ptr{nullptr};  // lock-free fast read

// Registered ambient-context hooks. Static storage + atomic pointer: the
// pointer is zero-initialized before any dynamic initialization runs, so a
// registrar object in another translation unit can install hooks safely no
// matter the TU initialization order.
BatchContextHooks g_batch_hooks_storage;
std::atomic<const BatchContextHooks*> g_batch_hooks{nullptr};

}  // namespace

void SetBatchContextHooks(const BatchContextHooks& hooks) {
  g_batch_hooks_storage = hooks;
  g_batch_hooks.store(&g_batch_hooks_storage, std::memory_order_release);
}

struct ThreadPool::Impl {
  /// One dispatched batch. A worker holds its own reference while it pulls
  /// tasks, so a straggler that wakes after its batch drained — even after
  /// the next batch started — pulls from its own exhausted counter instead
  /// of claiming an index of the next batch that it would then lose.
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    // The dispatching caller's ambient governor, re-installed on each
    // worker for the batch's duration so kernel checkpoints inside pool
    // tasks see the same per-query budget as the caller.
    ResourceGovernor* governor = nullptr;
    // The caller's captured ambient context (opaque; owned by Run) plus the
    // hooks to install it with, null when there is nothing to propagate.
    const BatchContextHooks* hooks = nullptr;
    void* context = nullptr;
    size_t total = 0;
    std::atomic<size_t> next{0};
    size_t finished = 0;  // guarded by Impl::mu
  };

  std::mutex mu;
  std::condition_variable_any cv_work;
  std::condition_variable cv_done;
  // One batch at a time; Run holds run_mu for the batch's duration.
  std::mutex run_mu;

  // The batch in flight (null between batches), guarded by mu.
  std::shared_ptr<Batch> batch;
  uint64_t generation = 0;

  std::vector<std::jthread> workers;

  void WorkerLoop(std::stop_token stop) {
    tls_in_pool_worker = true;
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv_work.wait(lock, stop, [&] { return generation != seen; });
      if (stop.stop_requested()) return;
      seen = generation;
      const std::shared_ptr<Batch> b = batch;
      if (b == nullptr) continue;  // woke after the batch finished
      lock.unlock();
      size_t done_here = 0;
      {
        GovernorScope scope(b->governor);
        // Enter the propagated context lazily, on the first claimed task: a
        // straggler that wakes after the batch drained must not touch
        // `b->context` (Run may have released it already), and Run cannot
        // finish while a task this worker claimed is still incomplete.
        void* token = nullptr;
        bool entered = false;
        while (true) {
          size_t i = b->next.fetch_add(1, std::memory_order_relaxed);
          if (i >= b->total) break;
          if (b->hooks != nullptr && !entered) {
            token = b->hooks->enter(b->context);
            entered = true;
          }
          (*b->task)(i);
          ++done_here;
        }
        if (entered) b->hooks->exit(token);
      }
      lock.lock();
      b->finished += done_here;
      if (b->finished >= b->total) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(const ParallelOptions& options)
    : impl_(new Impl), options_(options) {
  workers_wanted_ = ResolveThreadCount(options.threads);
  // The calling thread participates in every batch, so spawn one fewer
  // worker than the requested parallelism.
  for (unsigned i = 1; i < workers_wanted_; ++i) {
    impl_->workers.emplace_back(
        [impl = impl_](std::stop_token stop) { impl->WorkerLoop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : impl_->workers) w.request_stop();
  {
    // Wake everyone so stop is observed promptly.
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->cv_work.notify_all();
  }
  impl_->workers.clear();  // joins
  delete impl_;
}

ThreadPool& ThreadPool::Global() {
  ThreadPool* fast = g_global_pool_ptr.load(std::memory_order_acquire);
  if (fast != nullptr) return *fast;
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    ParallelOptions options;
    options.threads = ThreadsFromEnvironment();
    g_global_pool.reset(new ThreadPool(options));
    g_global_pool_ptr.store(g_global_pool.get(), std::memory_order_release);
  }
  return *g_global_pool;
}

void ThreadPool::Configure(const ParallelOptions& options) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_pool_ptr.store(nullptr, std::memory_order_release);
  g_global_pool.reset();  // join old workers before spawning new ones
  g_global_pool.reset(new ThreadPool(options));
  g_global_pool_ptr.store(g_global_pool.get(), std::memory_order_release);
}

ParallelStats ThreadPool::Stats() {
  ParallelStats s;
  s.tasks_spawned = g_tasks_spawned.load(std::memory_order_relaxed);
  s.parallel_dispatches = g_parallel_dispatches.load(std::memory_order_relaxed);
  s.serial_dispatches = g_serial_dispatches.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& task) {
  if (n == 0) return;
  const bool have_workers = !impl_->workers.empty();
  std::unique_lock<std::mutex> batch(impl_->run_mu, std::defer_lock);
  // Serial fallbacks: a serial pool, a trivial batch, a nested section on a
  // worker thread, or a batch already in flight from another caller.
  if (!have_workers || n == 1 || tls_in_pool_worker || !batch.try_lock()) {
    g_serial_dispatches.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) task(i);
    return;
  }
  g_parallel_dispatches.fetch_add(1, std::memory_order_relaxed);
  g_tasks_spawned.fetch_add(n, std::memory_order_relaxed);
  // Capture the caller's ambient context (tracer scope etc.) for the
  // workers; the caller itself already carries it in its own TLS.
  const BatchContextHooks* hooks =
      g_batch_hooks.load(std::memory_order_acquire);
  void* context =
      hooks != nullptr && hooks->capture != nullptr ? hooks->capture() : nullptr;
  auto b = std::make_shared<Impl::Batch>();
  b->task = &task;
  b->governor = CurrentGovernor();
  b->hooks = context != nullptr ? hooks : nullptr;
  b->context = context;
  b->total = n;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->batch = b;
    ++impl_->generation;
    impl_->cv_work.notify_all();
  }
  // The caller pulls tasks alongside the workers.
  size_t done_here = 0;
  while (true) {
    size_t i = b->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    task(i);
    ++done_here;
  }
  std::unique_lock<std::mutex> lock(impl_->mu);
  b->finished += done_here;
  impl_->cv_done.wait(lock, [&] { return b->finished >= n; });
  impl_->batch = nullptr;
  lock.unlock();
  // Workers are done with the batch once finished >= n, so the captured
  // context can be freed here.
  if (context != nullptr) hooks->release(context);
}

size_t ParallelChunkCount(size_t n, size_t grain) {
  ThreadPool& pool = ThreadPool::Global();
  const unsigned p = pool.parallelism();
  if (p <= 1 || tls_in_pool_worker) return 1;
  const size_t g = grain != 0 ? grain : pool.grain();
  if (g == 0 || n < 2 * g) return 1;
  // Mild oversubscription: tasks are pulled from a shared counter, so more
  // chunks than threads self-balances without work stealing.
  const size_t cap = static_cast<size_t>(p) * 4;
  const size_t want = n / g;
  return want < cap ? want : cap;
}

}  // namespace bagalg
