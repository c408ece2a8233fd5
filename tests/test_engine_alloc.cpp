// Pins the allocation-free engine tick. This binary replaces the global
// operator new with a counting one, which is why it is not folded into
// test_engine: the counter must see only the calls a test brackets.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

// Out of line, like the deletes below: inlined into a caller, GCC's
// -Wmismatched-new-delete pairs the malloc() and free() inside them with
// the caller's delete and new and reports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace autra::sim {
namespace {

/// WordCount at (2,4,8,4) fed 220k rec/s, the default 0.05 s tick.
std::unique_ptr<Engine> word_count_engine(bool percentiles) {
  JobSpec spec =
      workloads::word_count(std::make_shared<ConstantRate>(220000.0));
  spec.engine.latency_percentiles = percentiles;
  return make_engine(spec, {2, 4, 8, 4});
}

TEST(EngineAlloc, SteadyTickAllocatesLessThanHalfATimePerTick) {
  const std::unique_ptr<Engine> engine = word_count_engine(false);
  engine->run_until(60.0);  // queues, logs and scratch reach steady size

  const std::uint64_t ticks_before = engine->epoch_stats().ticks;
  const std::size_t allocations_before = g_allocations.load();
  engine->run_until(120.0);
  const double allocations =
      static_cast<double>(g_allocations.load() - allocations_before);
  const double ticks =
      static_cast<double>(engine->epoch_stats().ticks - ticks_before);

  ASSERT_GT(ticks, 1000.0);
  // What remains is std::deque block churn in the cohort queues and the
  // Kafka log, plus amortised growth of the per-second metric series.
  EXPECT_LT(allocations / ticks, 0.5)
      << allocations << " allocations over " << ticks << " ticks";
}

TEST(EngineAlloc, SnapshotCopiesTheReservoirOnlyWhenAskedForPercentiles) {
  constexpr std::size_t kReservoirBytes =
      LatencyStats::kReservoirSize * sizeof(double);
  for (const bool percentiles : {false, true}) {
    const std::unique_ptr<Engine> engine = word_count_engine(percentiles);
    engine->run_until(30.0);  // far more than 4096 samples of mass
    EXPECT_EQ(engine->processing_latency_distribution() != nullptr,
              percentiles);

    const std::size_t bytes_before = g_bytes.load();
    const runtime::JobMetrics m = snapshot(*engine);
    const std::size_t bytes = g_bytes.load() - bytes_before;

    EXPECT_EQ(m.latency_percentiles.has_value(), percentiles);
    if (percentiles) {
      EXPECT_GE(bytes, kReservoirBytes);  // the sorted copy
    } else {
      EXPECT_LT(bytes, kReservoirBytes) << bytes << " bytes allocated";
    }
  }
}

}  // namespace
}  // namespace autra::sim
