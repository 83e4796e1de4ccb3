// Concurrency stress harness (ctest label: stress).
//
// Drives the lock-free kernels -- frontier-queue flush, atomic flag
// claims, CAS tree ownership, parallel Karp-Sipser, and the full
// MS-BFS-Graft engine -- under randomized omp_set_num_threads and (when
// the library is compiled with GRAFTMATCH_STRESS_HOOKS) scheduling
// jitter injected inside the race windows themselves. Designed to run
// under ThreadSanitizer: `cmake -DGRAFTMATCH_SAN=tsan` then
// `ctest -L stress` (see docs/TESTING.md).
//
// Every randomized trial derives its seed from a fixed master seed via
// a splitmix64 stream and prints that seed on failure, so any CI log is
// enough to replay a failing schedule's inputs.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/gen/rmat.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/init/parallel_karp_sipser.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

constexpr std::uint64_t kMasterSeed = 0x5712E55ULL;

/// Jitter with probability 1/16 at every hook when hooks are compiled
/// in (TSan / stress builds); a no-op in plain builds, where the same
/// tests still run as fast schedule-race checks.
class StressEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { stress::set_yield_period(16); }
  void TearDown() override { stress::set_yield_period(0); }
};
[[maybe_unused]] const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new StressEnvironment);

TEST(ConcurrencyStress, FrontierQueueConcurrentProducersLoseNothing) {
  // Satellite check: thread-private buffers flushing into the shared
  // array at phase boundaries must neither lose nor duplicate vertices,
  // for uneven per-thread loads, across repeated phases on one queue.
  std::uint64_t stream = kMasterSeed;
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads = random_width(rng);
    // Uneven loads: ~half the producers push far more than the rest,
    // and counts are not multiples of the local buffer capacity.
    const int items = 20000 + static_cast<int>(rng.below(50000));
    FrontierQueue<int> queue(static_cast<std::size_t>(items));

    for (int phase = 0; phase < 3; ++phase) {
      queue.clear();
      parallel_region(threads, [&] {
        auto handle = queue.handle();
#pragma omp for schedule(dynamic, 37)
        for (int i = 0; i < items; ++i) handle.push(i);
        handle.flush();  // phase boundary
      });
      ASSERT_EQ(queue.size(), static_cast<std::size_t>(items))
          << "trial seed " << seed << " phase " << phase;
      auto span = queue.items();
      std::vector<int> sorted(span.begin(), span.end());
      std::sort(sorted.begin(), sorted.end());
      for (int i = 0; i < items; ++i) {
        ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i)
            << "lost/duplicated vertex, trial seed " << seed << " phase "
            << phase;
      }
    }
  }
}

TEST(ConcurrencyStress, AtomicBitmapClaimsAreExactlyOnce) {
  // Every thread races to claim every flag (the Y-vertex visited bitmap
  // pattern): total successful claims must equal the flag count.
  std::uint64_t stream = kMasterSeed ^ 0xB17;
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads = random_width(rng);
    const int flags_count = 5000 + static_cast<int>(rng.below(20000));
    std::vector<std::uint8_t> flags(static_cast<std::size_t>(flags_count), 0);
    std::int64_t claims = 0;
    parallel_region(threads, [&] {
      std::int64_t local_claims = 0;
      // No worksharing: every thread attempts every flag.
      for (int i = 0; i < flags_count; ++i) {
        if (claim_flag(flags[static_cast<std::size_t>(i)])) ++local_claims;
      }
      fetch_add_relaxed(claims, local_claims);
    });
    ASSERT_EQ(claims, flags_count) << "trial seed " << seed;
    ASSERT_TRUE(std::all_of(flags.begin(), flags.end(),
                            [](std::uint8_t f) { return f == 1; }))
        << "trial seed " << seed;
  }
}

TEST(ConcurrencyStress, CasTreeOwnershipHasUniqueWinners) {
  // The tree-grafting ownership pattern: threads race to set parent[v]
  // from kInvalidVertex to their own claim id via cas(). Exactly one
  // winner per vertex, and each thread's view of its wins must match
  // the final array (no lost updates, no double grants).
  std::uint64_t stream = kMasterSeed ^ 0xCA5;
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads = random_width(rng);
    const int vertices = 4000 + static_cast<int>(rng.below(12000));
    std::vector<vid_t> parent(static_cast<std::size_t>(vertices),
                              kInvalidVertex);
    std::int64_t total_wins = 0;
    parallel_region(threads, [&] {
      const vid_t my_id = static_cast<vid_t>(omp_get_thread_num());
      std::vector<vid_t> my_wins;
      std::int64_t local_wins = 0;
      for (int v = 0; v < vertices; ++v) {
        auto& slot = parent[static_cast<std::size_t>(v)];
        if (relaxed_load(slot) != kInvalidVertex) continue;  // pre-check
        if (cas(slot, kInvalidVertex, my_id)) {
          my_wins.push_back(static_cast<vid_t>(v));
        }
      }
      local_wins += static_cast<std::int64_t>(my_wins.size());
      for (const vid_t v : my_wins) {
        // A granted claim must never be overwritten by another thread.
        if (relaxed_load(parent[static_cast<std::size_t>(v)]) != my_id) {
          local_wins += 1000000;  // poison the count; asserted below
        }
      }
      fetch_add_relaxed(total_wins, local_wins);
    });
    ASSERT_EQ(total_wins, vertices) << "trial seed " << seed;
    ASSERT_TRUE(std::none_of(parent.begin(), parent.end(),
                             [](vid_t p) { return p == kInvalidVertex; }))
        << "trial seed " << seed;
  }
}

TEST(ConcurrencyStress, ParallelKarpSipserStaysMaximalAndValid) {
  std::uint64_t stream = kMasterSeed ^ 0x4B5;
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads = random_width(rng);
    const BipartiteGraph g = wide_graph([&](int k) {
      ErdosRenyiParams params;
      params.nx = 1500 * k;
      params.ny = 1400 * k;
      params.edges = 7000 * k;
      params.seed = seed;
      return generate_erdos_renyi(params);
    });
    last_team_width().store(-1);
    const Matching m = parallel_karp_sipser(g, seed, threads);
    ASSERT_EQ(last_team_width().load(), threads) << "trial seed " << seed;
    ASSERT_EQ(validate_matching(g, m), "") << "trial seed " << seed;
    ASSERT_TRUE(is_maximal_matching(g, m))
        << "trial seed " << seed << " threads " << threads;
  }
}

// Same seed -> same cardinality, across 50 trials with a fresh random
// thread count each trial, against a serial Hopcroft-Karp reference.
// The graphs are above wide_edges(), so each trial runs at its draw.
// This is the paper's determinism claim for MS-BFS-Graft (the matching
// itself may differ run to run; its cardinality may not).
void determinism_trials(const BipartiteGraph& g, const char* label) {
  Matching reference_matching = karp_sipser(g, 11);
  hopcroft_karp(g, reference_matching);
  const std::int64_t reference = reference_matching.cardinality();

  std::uint64_t stream = kMasterSeed ^ 0xDE7;
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    RunConfig config;
    config.threads = random_width(rng);
    config.direction_optimizing = rng.below(2) == 0;
    config.tree_grafting = rng.below(2) == 0;
    config.seed = 11;  // fixed algorithm seed: cardinality must not move
    Matching m = karp_sipser(g, 11);
    const RunStats stats = ms_bfs_graft(g, m, config);
    ASSERT_EQ(stats.threads_used, config.threads)
        << label << " trial " << trial << " seed " << seed;
    ASSERT_EQ(validate_matching(g, m), "")
        << label << " trial " << trial << " seed " << seed;
    ASSERT_EQ(m.cardinality(), reference)
        << label << " trial " << trial << " trial seed " << seed
        << " threads " << config.threads << " do "
        << config.direction_optimizing << " graft " << config.tree_grafting;
    ASSERT_TRUE(is_maximum_matching(g, m))
        << label << " trial " << trial << " trial seed " << seed;
  }
}

TEST(ConcurrencyStress, MsBfsGraftCardinalityDeterministic50TrialsRmat) {
  determinism_trials(wide_graph([](int k) {
    RmatParams params;
    params.scale = 9 + k;
    params.edge_factor = 8.0;
    params.seed = 42;
    return generate_rmat(params);
  }), "rmat");
}

TEST(ConcurrencyStress, MsBfsGraftCardinalityDeterministic50TrialsWeb) {
  determinism_trials(wide_graph([](int k) {
    WebCrawlParams params;
    params.nx = 1200 * k;
    params.ny = 1200 * k;
    params.stub_fraction = 0.6;
    params.hub_count = 48 * k;
    params.seed = 42;
    return generate_webcrawl(params);
  }), "web");
}

TEST(ConcurrencyStress, FullEngineUnderOversubscriptionCertifies) {
  // End-to-end: heavy-tailed graph, maximum oversubscription, invariant
  // auditing on. Any dropped augmenting path fails the Koenig check.
  const BipartiteGraph g = wide_graph([](int k) {
    ChungLuParams params;
    params.nx = 2000 * k;
    params.ny = 2000 * k;
    params.avg_degree = 7.0;
    params.gamma = 2.0;
    params.max_degree = 256;
    params.seed = 5;
    return generate_chung_lu(params);
  });
  std::uint64_t stream = kMasterSeed ^ 0xF11;
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    RunConfig config;
    config.threads = 2 * omp_get_num_procs();
    config.check_invariants = true;
    Matching m = parallel_karp_sipser(g, seed, config.threads);
    const RunStats stats = ms_bfs_graft(g, m, config);
    ASSERT_EQ(stats.threads_used, config.threads) << "trial seed " << seed;
    ASSERT_TRUE(is_maximum_matching(g, m)) << "trial seed " << seed;
  }
}

}  // namespace
}  // namespace graftmatch
