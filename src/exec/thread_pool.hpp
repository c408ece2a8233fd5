// Fixed worker-thread pool backing the Plan stage's parallel primitives.
//
// One process-wide pool is shared by every parallel region (exec.hpp);
// callers never talk to it directly. The pool grows lazily to the largest
// thread count any ExecContext has asked for and joins its workers at
// static destruction, so sanitizer runs see a clean shutdown.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autra::exec {

class ThreadPool {
 public:
  /// The process-wide pool. Created on first use with zero workers;
  /// parallel regions grow it on demand.
  [[nodiscard]] static ThreadPool& shared();

  ThreadPool() = default;
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Grows the pool to at least `n` workers (never shrinks).
  void ensure_workers(unsigned n);

  /// Enqueues `task` for execution on some worker. Every posted task runs
  /// exactly once; there is no cancellation.
  void post(std::function<void()> task);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

}  // namespace autra::exec
