// Unit tests for timers, atomics helpers, padded types, frontier queues,
// the solve-width rule, and system info.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "graftmatch/runtime/aligned.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/system_info.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch {
namespace {

TEST(Timer, ElapsedIsMonotone) {
  const Timer timer;
  const double t1 = timer.elapsed();
  const double t2 = timer.elapsed();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(Stopwatch, AccumulatesLaps) {
  Stopwatch watch;
  EXPECT_EQ(watch.seconds(), 0.0);
  EXPECT_EQ(watch.laps(), 0);
  watch.start();
  watch.stop();
  watch.start();
  watch.stop();
  EXPECT_EQ(watch.laps(), 2);
  EXPECT_GE(watch.seconds(), 0.0);
  watch.reset();
  EXPECT_EQ(watch.laps(), 0);
  EXPECT_EQ(watch.seconds(), 0.0);
}

TEST(Stopwatch, StopWithoutStartIsNoop) {
  Stopwatch watch;
  watch.stop();
  EXPECT_EQ(watch.laps(), 0);
}

TEST(Stopwatch, ScopedLapStops) {
  Stopwatch watch;
  { const ScopedLap lap(watch); }
  EXPECT_EQ(watch.laps(), 1);
}

TEST(Timer, FormatSeconds) {
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
  EXPECT_EQ(format_seconds(0.0125), "12.500 ms");
  EXPECT_EQ(format_seconds(42e-6), "42.0 us");
}

TEST(Atomics, ClaimFlagIsExactlyOnce) {
  std::vector<std::uint8_t> flags(1000, 0);
  std::atomic<int> claims{0};
  parallel_region(4, [&] {
#pragma omp for
    for (int i = 0; i < 1000; ++i) {
      // Every thread races for every flag; exactly 1000 total claims.
      for (int attempt = 0; attempt < 4; ++attempt) {
        if (claim_flag(flags[static_cast<std::size_t>(i)])) {
          claims.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(claims.load(), 1000);
  EXPECT_TRUE(std::all_of(flags.begin(), flags.end(),
                          [](std::uint8_t f) { return f == 1; }));
}

TEST(Atomics, CasTransitions) {
  std::int64_t value = 5;
  EXPECT_TRUE(cas<std::int64_t>(value, 5, 9));
  EXPECT_EQ(value, 9);
  EXPECT_FALSE(cas<std::int64_t>(value, 5, 11));
  EXPECT_EQ(value, 9);
}

TEST(Atomics, FetchAddReturnsPrevious) {
  std::int64_t value = 10;
  EXPECT_EQ(fetch_add_relaxed(value, std::int64_t{3}), 10);
  EXPECT_EQ(value, 13);
}

TEST(Aligned, PaddedOccupiesFullCacheLine) {
  static_assert(sizeof(Padded<int>) == kCacheLineBytes);
  static_assert(alignof(Padded<int>) == kCacheLineBytes);
  PerThread<std::int64_t> slots(4);
  slots[0].value = 1;
  slots[3].value = 41;
  EXPECT_EQ(per_thread_sum(slots), 42);
}

TEST(FrontierQueue, SerialPushAndItems) {
  FrontierQueue<int> queue(10);
  EXPECT_TRUE(queue.empty());
  queue.push(3);
  queue.push(1);
  EXPECT_EQ(queue.size(), 2u);
  const auto items = queue.items();
  EXPECT_EQ(items[0], 3);
  EXPECT_EQ(items[1], 1);
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

TEST(FrontierQueue, HandleFlushesOnDestruction) {
  FrontierQueue<int> queue(10);
  {
    auto handle = queue.handle();
    handle.push(7);
  }  // destructor flushes
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.items()[0], 7);
}

TEST(FrontierQueue, ParallelPushesLoseNothing) {
  constexpr int kItems = 100000;
  FrontierQueue<int> queue(kItems);
  parallel_region(4, [&] {
    auto handle = queue.handle();
#pragma omp for
    for (int i = 0; i < kItems; ++i) handle.push(i);
  });
  EXPECT_EQ(queue.size(), static_cast<std::size_t>(kItems));
  // Every value appears exactly once.
  auto items = queue.items();
  std::vector<int> sorted(items.begin(), items.end());
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(FrontierQueue, SwapExchangesContents) {
  FrontierQueue<int> a(4);
  FrontierQueue<int> b(4);
  a.push(1);
  b.push(2);
  b.push(3);
  a.swap(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.items()[0], 1);
}

TEST(Parallel, ThreadCountGuardRestores) {
  const int before = omp_get_max_threads();
  {
    const ThreadCountGuard guard(2);
    EXPECT_EQ(omp_get_max_threads(), 2);
  }
  EXPECT_EQ(omp_get_max_threads(), before);
}

TEST(Parallel, ZeroThreadsKeepsDefault) {
  const int before = omp_get_max_threads();
  {
    const ThreadCountGuard guard(0);
    EXPECT_EQ(omp_get_max_threads(), before);
  }
  EXPECT_EQ(omp_get_max_threads(), before);
}

TEST(Parallel, ExclusivePrefixSum) {
  std::vector<std::int64_t> values{3, 1, 4, 1, 5};
  const std::int64_t total = exclusive_prefix_sum(values);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(values, (std::vector<std::int64_t>{0, 3, 4, 8, 9}));
}

TEST(Parallel, FirstTouchFill) {
  std::vector<int> data(1 << 16, -1);
  first_touch_fill(data, 7);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                          [](int v) { return v == 7; }));
}

TEST(Parallel, SolveWidthSizesTheTeamToTheGraph) {
  EXPECT_EQ(solve_width(0, 4), 1);
  EXPECT_EQ(solve_width(kEdgesPerThread, 4), 1);
  EXPECT_EQ(solve_width(kEdgesPerThread + 1, 4), 2);
  EXPECT_EQ(solve_width(100 * kEdgesPerThread, 4), 4) << "capped";
  const ThreadCountGuard guard(3);
  EXPECT_EQ(solve_width(100 * kEdgesPerThread, 0), 3) << "runtime default";
}

TEST(SystemInfo, FieldsPopulated) {
  const SystemInfo info = query_system_info();
  EXPECT_GE(info.logical_cpus, 1);
  EXPECT_GT(info.total_ram_mb, 0);
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_GE(info.openmp_max_threads, 1);
  const std::string text = format_system_info(info);
  EXPECT_NE(text.find("CPU model"), std::string::npos);
  EXPECT_NE(text.find("OpenMP"), std::string::npos);
}

}  // namespace
}  // namespace graftmatch
