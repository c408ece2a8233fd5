// Pins what a MetricStore costs per point: series written at the same
// instants share one time column and keep one running sum per 64 points, so
// a store holds at most 40% of the live bytes the three-column layout holds
// for the same points. This binary replaces the global operator new with a
// counting one, which is why it is not folded into test_metric_store.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"

#include <gtest/gtest.h>

#include "three_column_store.hpp"

namespace {

// Live bytes: every block carries its size in a header, so both deletes
// can subtract it.
std::atomic<std::size_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

}  // namespace

// Out of line, like the deletes below: inlined into a caller, GCC's
// -Wmismatched-new-delete pairs the malloc() and free() inside them with
// the caller's delete and new and reports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(block),
                         std::memory_order_relaxed);
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace autra::runtime {
namespace {

constexpr std::size_t kSeries = 27;  // Engine::write_metrics' gauges, 4 ops.

/// Live heap bytes of a `Store` holding kSeries series written in lockstep
/// at `instants` instants, one second apart, as an engine writes them.
template <typename Store>
std::size_t bytes_held(std::size_t instants) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kSeries; ++i) {
    names.push_back("taskmanager.job.task.gauge." + std::to_string(i));
  }
  std::vector<MetricId> ids(kSeries);
  const std::size_t before = g_live_bytes.load();
  Store db;
  for (std::size_t i = 0; i < kSeries; ++i) ids[i] = db.resolve(names[i]);
  for (std::size_t t = 0; t < instants; ++t) {
    for (std::size_t i = 0; i < kSeries; ++i) {
      db.record(ids[i], static_cast<double>(t),
                0.25 * static_cast<double>(t % 97) + static_cast<double>(i));
    }
  }
  EXPECT_EQ(db.points_held(), kSeries * instants);
  return g_live_bytes.load() - before;
}

TEST(MetricStoreAlloc, LockstepSeriesHoldAtMostFortyPercentOfThreeColumns) {
  // 43,200 instants are one 12 h episode of 1 Hz gauges.
  for (const std::size_t instants : {1000u, 43200u}) {
    const std::size_t shared = bytes_held<MetricStore>(instants);
    const std::size_t three = bytes_held<oracle::ThreeColumnStore>(instants);
    EXPECT_LE(10 * shared, 4 * three)
        << instants << " instants: " << shared << " vs " << three << " bytes";
  }
}

}  // namespace
}  // namespace autra::runtime
