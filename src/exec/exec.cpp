#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exec/thread_pool.hpp"

namespace autra::exec {

namespace {

thread_local bool tl_in_parallel_region = false;

/// RAII guard marking the current thread as inside a parallel region.
struct RegionGuard {
  RegionGuard() { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = false; }
};

/// Shared state of one parallel_for invocation. The caller owns it on the
/// stack conceptually, but helpers hold a shared_ptr so a helper scheduled
/// late (after the work is drained) still finds valid state.
struct Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  unsigned pending_helpers = 0;  // guarded by mu
  std::exception_ptr error;      // guarded by mu

  void work() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*body)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
        // Abandon the remaining indices; in-flight ones finish.
        next.store(n, std::memory_order_relaxed);
      }
    }
  }
};

}  // namespace

unsigned default_threads() {
  if (const char* env = std::getenv("AUTRA_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

ExecContext::ExecContext(int threads)
    : threads_(threads <= 0 ? default_threads()
                            : static_cast<unsigned>(threads)) {}

namespace detail {

void run_indexed(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  if (tl_in_parallel_region) {
    throw std::logic_error(
        "autra::exec: nested parallel region (use ExecContext::serial() "
        "inside parallel work)");
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->body = &body;

  const auto helpers = static_cast<unsigned>(
      std::min<std::size_t>(threads - 1, n - 1));
  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_workers(helpers);
  batch->pending_helpers = helpers;
  for (unsigned h = 0; h < helpers; ++h) {
    pool.post([batch] {
      {
        RegionGuard guard;
        batch->work();
      }
      std::lock_guard<std::mutex> lock(batch->mu);
      --batch->pending_helpers;
      batch->done_cv.notify_all();
    });
  }

  {
    RegionGuard guard;
    batch->work();
  }

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&] { return batch->pending_helpers == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace detail

}  // namespace autra::exec
