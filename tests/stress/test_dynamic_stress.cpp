// Dynamic-matcher stress harness (ctest labels: stress dynamic).
//
// Several DynamicMatchers churning concurrently in one process, each
// owned by its own SessionContext on its own host thread, with
// randomized OpenMP widths for the full-re-solve path, randomized
// per-session yield-jitter overrides, and traces armed on some
// sessions. The matcher itself is single-owner serial; what this
// harness proves under ThreadSanitizer (cmake -DGRAFTMATCH_SAN=tsan;
// ctest -L "stress|dynamic", suppression-free) is that the engine
// re-solves triggered from CONCURRENT matchers share nothing: no
// cross-session traffic through probe atomics, workspace pools, or
// trace rings, while the differential oracle still holds per session.
//
// Every randomized trial derives its seed from a fixed master seed and
// prints it on failure so CI logs are enough to replay the schedule's
// inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

constexpr std::uint64_t kMasterSeed = 0xD1AC0517ULL;

class StressEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { stress::set_yield_period(16); }
  void TearDown() override { stress::set_yield_period(0); }
};
[[maybe_unused]] const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new StressEnvironment);

std::int64_t hk_cardinality(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m.cardinality();
}

// S sessions, each churning its own DynamicMatcher while the staleness
// gate keeps punching batches through the parallel engine re-solve
// path at randomized widths. Cardinality is oracle-checked after every
// batch, per session.
TEST(DynamicStress, ConcurrentMatchersChurnIsolated) {
  constexpr int kSessions = 4;
  constexpr int kBatches = 14;

  std::atomic<int> wrong{0};
  std::vector<std::string> failures(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      const auto si = static_cast<std::size_t>(s);
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(s * 6151));
      SessionContext session;
      const bool armed = (s % 2) == 0;
      if (armed) session.trace().arm();
      if (s % 3 == 0) session.set_yield_period(4);
      else if (s % 3 == 1) session.clear_yield_period();
      else session.set_yield_period(0);

      // Above wide_edges() by more than the churn removes (<= 672), so
      // every re-solve runs at the drawn width; ~5 edges per row.
      ErdosRenyiParams params;
      params.edges = wide_edges() + 1000 + 100 * s;
      params.nx = static_cast<vid_t>(params.edges / 5);
      params.ny = params.nx - 20;
      params.seed = kMasterSeed + static_cast<std::uint64_t>(s);
      const BipartiteGraph g = generate_erdos_renyi(params);

      dynamic::DynamicConfig config;
      // Low staleness threshold (~30 edges of churn): most trials cross
      // it, so the engine re-solve (the parallel region under test)
      // fires repeatedly. Compaction at ~150 edges of overlay.
      const auto edges = static_cast<double>(g.num_edges());
      config.staleness_delta_fraction = 30.0 / edges;
      config.compact_fraction = 150.0 / edges;
      config.run.threads = random_width(rng);
      config.run.seed = rng();
      dynamic::DynamicMatcher matcher(session, g, config);

      std::vector<Edge> live = g.to_edges().edges;
      std::vector<Edge> removed;
      for (int step = 0; step < kBatches; ++step) {
        std::vector<Edge> batch;
        const std::size_t want = 1 + rng.below(48);
        if (step % 2 == 0) {
          for (std::size_t k = 0; k < want && !live.empty(); ++k) {
            const std::size_t pick = rng.below(live.size());
            batch.push_back(live[pick]);
            removed.push_back(live[pick]);
            live[pick] = live.back();
            live.pop_back();
          }
          matcher.remove_edges(batch);
        } else {
          for (std::size_t k = 0; k < want; ++k) {
            if (!removed.empty() && rng.below(2) == 0) {
              batch.push_back(removed.back());
              removed.pop_back();
            } else {
              batch.push_back(
                  {static_cast<vid_t>(rng.below(
                       static_cast<std::uint64_t>(g.num_x()))),
                   static_cast<vid_t>(rng.below(
                       static_cast<std::uint64_t>(g.num_y())))});
            }
          }
          matcher.add_edges(batch);
          for (const Edge& e : batch) live.push_back(e);
        }
        const std::int64_t oracle = hk_cardinality(matcher.materialize());
        if (matcher.cardinality() != oracle) {
          wrong.fetch_add(1);
          failures[si] = "session " + std::to_string(s) + " step " +
                         std::to_string(step) + ": got " +
                         std::to_string(matcher.cardinality()) + " want " +
                         std::to_string(oracle) + " (seed " +
                         std::to_string(kMasterSeed) + ")";
          return;
        }
        if (session.workspaces().outstanding() != 0) {
          wrong.fetch_add(1);
          failures[si] = "leaked workspace lease";
          return;
        }
      }
      const RunStats stats = matcher.stats();
      if (!stats.dynamic.collected || stats.dynamic.batches != kBatches ||
          stats.dynamic.resolves == 0 ||
          stats.threads_used != config.run.threads) {
        wrong.fetch_add(1);
        failures[si] = "dynamic counters wrong: batches=" +
                       std::to_string(stats.dynamic.batches) + " resolves=" +
                       std::to_string(stats.dynamic.resolves) + " width=" +
                       std::to_string(stats.threads_used);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  for (const auto& f : failures) {
    EXPECT_TRUE(f.empty()) << f;
  }
}

// Matchers churning while OTHER sessions hammer the engine directly:
// the re-solve path and plain engine runs interleave in one process.
TEST(DynamicStress, ChurnBesideForegroundSolves) {
  constexpr int kChurners = 2;
  constexpr int kSolvers = 2;

  ErdosRenyiParams params;
  params.edges = wide_edges() + 1000;  // the churn removes up to 24
  params.nx = static_cast<vid_t>(params.edges / 5);
  params.ny = params.nx - 20;
  params.seed = kMasterSeed;
  const BipartiteGraph shared = generate_erdos_renyi(params);
  const std::int64_t oracle = hk_cardinality(shared);
  // The engine re-solves after ~100 edges of churn (two steps).
  const double staleness = 100.0 / static_cast<double>(shared.num_edges());

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kChurners; ++s) {
    threads.emplace_back([&, s] {
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(0x99 + s));
      SessionContext session;
      dynamic::DynamicConfig config;
      config.staleness_delta_fraction = staleness;
      config.run.threads = random_width(rng);
      dynamic::DynamicMatcher matcher(session, shared, config);
      std::vector<Edge> removed;
      std::vector<Edge> live = shared.to_edges().edges;
      for (int step = 0; step < 10; ++step) {
        std::vector<Edge> batch;
        for (std::size_t k = 0; k < 24 && !live.empty(); ++k) {
          const std::size_t pick = rng.below(live.size());
          batch.push_back(live[pick]);
          live[pick] = live.back();
          live.pop_back();
          removed.push_back(batch.back());
        }
        matcher.remove_edges(batch);
        matcher.add_edges(batch);
        if (matcher.cardinality() != oracle) {
          wrong.fetch_add(1);
          return;
        }
      }
      if (matcher.stats().threads_used != config.run.threads) {
        wrong.fetch_add(1);
      }
    });
  }
  for (int s = 0; s < kSolvers; ++s) {
    threads.emplace_back([&, s] {
      Xoshiro256 rng(kMasterSeed ^ static_cast<std::uint64_t>(0x777 + s));
      SessionContext session;
      for (int run = 0; run < 8; ++run) {
        RunConfig config;
        config.threads = random_width(rng);
        config.seed = rng();
        Matching m(shared.num_x(), shared.num_y());
        const RunStats stats =
            engine::run(session, "graft", "rgreedy", shared, m, config);
        if (stats.final_cardinality != oracle ||
            stats.threads_used != config.threads) {
          wrong.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace graftmatch
