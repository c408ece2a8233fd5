// Parallel execution layer for the Plan stage.
//
// An ExecContext carries a thread count — resolved from an explicit value,
// the AUTRA_THREADS environment variable, or hardware_concurrency — and the
// primitives below fan independent index-addressed work out over the shared
// ThreadPool:
//
//   parallel_for     — run fn(i) for i in [0, n)
//   parallel_map     — out[i] = fn(i), results stored by index
//   parallel_reduce  — map per index, then fold *in index order*
//
// Determinism contract: every primitive produces results that are
// bit-identical regardless of the thread count, because each index's work
// is independent and all reductions fold in index order on the calling
// thread. A context with one thread is guaranteed to run inline on the
// calling thread without touching the pool, so `ExecContext::serial()`
// is always a safe fallback.
//
// Error handling: the first exception thrown by any index is captured,
// remaining indices are abandoned, and the exception is rethrown on the
// calling thread once every worker has left the region.
//
// Nesting: opening a parallel (threads > 1) region from inside another
// parallel region throws std::logic_error — worker threads must never
// block on a pool they are part of. Serial contexts nest freely.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace autra::exec {

/// Process default thread count: AUTRA_THREADS when set to a positive
/// integer, otherwise std::thread::hardware_concurrency(), floored at 1.
/// Re-read from the environment on every call (it is consulted only at
/// context construction).
[[nodiscard]] unsigned default_threads();

/// A thread-count handle passed to the parallel primitives. Cheap to copy;
/// the backing pool is process-wide and created on demand.
class ExecContext {
 public:
  /// `threads` <= 0 resolves to default_threads(); 1 guarantees the serial
  /// inline path; larger values may oversubscribe the machine (useful for
  /// determinism tests, harmless for correctness).
  explicit ExecContext(int threads = 0);

  /// The guaranteed-serial context.
  [[nodiscard]] static ExecContext serial() { return ExecContext(1); }

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

 private:
  unsigned threads_;
};

namespace detail {

/// Runs body(i) for i in [0, n) on `threads` threads (the caller
/// participates; up to threads-1 pool workers help). Throws
/// std::logic_error when called from inside a parallel region.
void run_indexed(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)>& body);

}  // namespace detail

/// Runs fn(i) for every i in [0, n). fn must not touch shared mutable
/// state except through its own index (results should be written to
/// index-addressed slots).
template <typename Fn>
void parallel_for(const ExecContext& ctx, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  if (ctx.threads() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::run_indexed(ctx.threads(), n,
                      [&fn](std::size_t i) { fn(i); });
}

/// out[i] = fn(i) for i in [0, n). The result type must be
/// default-constructible and movable.
template <typename Fn>
[[nodiscard]] auto parallel_map(const ExecContext& ctx, std::size_t n,
                                Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(ctx, n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// acc = fold(acc, map(i)) folded strictly in index order — the ordered
/// reduction that keeps floating-point results identical to a serial loop
/// at any thread count.
template <typename T, typename Map, typename Fold>
[[nodiscard]] T parallel_reduce(const ExecContext& ctx, std::size_t n,
                                T init, Map&& map, Fold&& fold) {
  auto values = parallel_map(ctx, n, std::forward<Map>(map));
  T acc = std::move(init);
  for (auto& v : values) acc = fold(std::move(acc), std::move(v));
  return acc;
}

}  // namespace autra::exec
