// Word-kernel stress harness (ctest label: stress).
//
// The word-granular bottom-up kernel claims 64 visited bits with one
// CAS (AtomicBitmap::claim_word) and falls back to per-bit claims when
// the CAS loop exhausts its retries under contention. The solver's
// word-per-thread schedule makes same-level contention rare, so this
// harness manufactures the contention directly: threads race
// overlapping masks at randomized widths (tail words included) under
// scheduling jitter, mixed word/bit granularity races, and full
// kernel=word engine runs at randomized thread counts -- all
// oracle-checked and designed to run suppression-free under
// ThreadSanitizer (`cmake -DGRAFTMATCH_SAN=tsan`, `ctest -L stress`).
//
// Every randomized trial derives its seed from a fixed master seed via
// a splitmix64 stream and prints it on failure.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/gen/suite.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/epoch_array.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/validate.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

constexpr std::uint64_t kMasterSeed = 0x30D1CA5ULL;

/// Jitter with probability 1/16 at every hook when hooks are compiled
/// in (TSan / stress builds); a no-op in plain builds, where the same
/// tests still run as fast schedule-race checks. The claim_word CAS
/// loop has a hook between its load and its compare_exchange, so the
/// jitter lands exactly inside the retry window.
class StressEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { stress::set_yield_period(16); }
  void TearDown() override { stress::set_yield_period(0); }
};
[[maybe_unused]] const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new StressEnvironment);

TEST(WordKernelStress, RacingOverlappingMasksWinEachBitOnce) {
  // Every thread races claim_word over every word with its own random
  // mask. Exactly-once means: summed popcounts of all wins equals the
  // popcount of the final bitmap, and every won bit is inside the
  // winner's mask. Widths are randomized and deliberately non-multiples
  // of 64 so the tail word is always in play.
  std::uint64_t stream = kMasterSeed;
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads = random_width(rng);
    const std::size_t width = 65 + static_cast<std::size_t>(rng.below(4031));
    AtomicBitmap bits;
    bits.reset(width);
    const std::size_t words = bits.word_count();

    std::int64_t total_won = 0;
    std::int64_t fallbacks = 0;
    parallel_region(threads, [&] {
      Xoshiro256 local_rng(seed ^
                           static_cast<std::uint64_t>(omp_get_thread_num()));
      std::int64_t local_won = 0;
      std::int64_t local_fallbacks = 0;
      // No worksharing: every thread attacks every word, twice, so the
      // second sweep races against saturated and half-claimed words.
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::size_t w = 0; w < words; ++w) {
          const std::uint64_t mask = local_rng() | local_rng();  // ~75% dense
          bool fell_back = false;
          const std::uint64_t won = bits.claim_word(w, mask, &fell_back);
          ASSERT_EQ(won & ~mask, 0u)
              << "won a bit outside the mask, trial seed " << seed;
          local_won += std::popcount(won);
          if (fell_back) ++local_fallbacks;
        }
      }
      fetch_add_relaxed(total_won, local_won);
      fetch_add_relaxed(fallbacks, local_fallbacks);
    });

    std::int64_t set_bits = 0;
    for (std::size_t w = 0; w < words; ++w) {
      set_bits += std::popcount(bits.load_word(w));
    }
    ASSERT_EQ(total_won, set_bits)
        << "lost or double-granted claims, trial seed " << seed;
    RecordProperty("fallbacks", static_cast<int>(fallbacks));
  }
}

TEST(WordKernelStress, MixedWordAndBitGranularityStaysExactlyOnce) {
  // Half the threads claim whole words, half claim individual bits of
  // the same words -- the exact mix the kernel's contention fallback
  // produces. Total wins (counting bits) must equal final set bits.
  std::uint64_t stream = kMasterSeed ^ 0xB17;
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads = std::max(2, random_width(rng));
    const std::size_t width = 64 * (8 + static_cast<std::size_t>(rng.below(56)));
    AtomicBitmap bits;
    bits.reset(width);
    const std::size_t words = bits.word_count();

    std::int64_t total_won = 0;
    parallel_region(threads, [&] {
      const int tid = omp_get_thread_num();
      Xoshiro256 local_rng(seed ^ static_cast<std::uint64_t>(tid) * 0x9E37ULL);
      std::int64_t local_won = 0;
      if (tid % 2 == 0) {
        for (std::size_t w = 0; w < words; ++w) {
          local_won += std::popcount(bits.claim_word(w, local_rng()));
        }
      } else {
        for (std::size_t i = 0; i < width; ++i) {
          if ((local_rng() & 1u) != 0 && bits.claim(i)) ++local_won;
        }
      }
      fetch_add_relaxed(total_won, local_won);
    });

    std::int64_t set_bits = 0;
    for (std::size_t w = 0; w < words; ++w) {
      set_bits += std::popcount(bits.load_word(w));
    }
    ASSERT_EQ(total_won, set_bits) << "trial seed " << seed;
  }
}

TEST(WordKernelStress, ForcedContentionExercisesFallbackCorrectly) {
  // All threads hammer ONE word with disjoint per-thread masks, round
  // after round. Disjointness makes the postcondition exact: every
  // thread must win precisely its own mask, whether the word-CAS
  // landed or the per-bit fallback finished the job. With up to 64
  // claimants per word and jitter inside the retry window, the
  // 4-attempt CAS budget does get exhausted here.
  std::uint64_t stream = kMasterSeed ^ 0xFA11;
  std::int64_t fallbacks = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const int threads =
        2 + static_cast<int>(rng.below(
                static_cast<std::uint64_t>(2 * omp_get_num_procs())));
    const int claimants = std::min(threads, 64);
    const int bits_each = 64 / claimants;
    AtomicBitmap bits;
    bits.reset(64);
    parallel_region(threads, [&] {
      const int tid = omp_get_thread_num();
      if (tid < claimants) {
        // Thread t owns bit-lanes [t * bits_each, (t+1) * bits_each).
        std::uint64_t mask = 0;
        for (int b = 0; b < bits_each; ++b) {
          mask |= std::uint64_t{1} << (tid * bits_each + b);
        }
        bool fell_back = false;
        const std::uint64_t won = bits.claim_word(0, mask, &fell_back);
        ASSERT_EQ(won, mask)
            << "disjoint claimant lost its own bits, trial seed " << seed
            << " tid " << tid;
        if (fell_back) fetch_add_relaxed(fallbacks, std::int64_t{1});
      }
    });
    std::uint64_t expected = 0;
    for (int t = 0; t < claimants; ++t) {
      for (int b = 0; b < bits_each; ++b) {
        expected |= std::uint64_t{1} << (t * bits_each + b);
      }
    }
    ASSERT_EQ(bits.load_word(0), expected) << "trial seed " << seed;
  }
  // Whether the fallback fired is schedule-dependent; record it so a
  // TSan CI log shows the path was (usually) exercised.
  RecordProperty("fallbacks_across_trials", static_cast<int>(fallbacks));
}

TEST(WordKernelStress, WordKernelEngineRunsMatchOracleUnderJitter) {
  // End-to-end: kernel=word engine runs at randomized thread counts,
  // direction optimization on/off and alpha (1e6 makes nearly every
  // level bottom-up), oracle-checked every trial. Under TSan this is the leg
  // that would surface a racy scan->claim->attach interleaving.
  std::uint64_t stream = kMasterSeed ^ 0xE2E;
  const std::vector<std::string> instances = {"hugetrace-like",
                                              "copapers-like",
                                              "wikipedia-like"};
  const std::vector<double> alphas = {1.5, 5.0, 1e6};
  for (int trial = 0; trial < 9; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const std::string& name = instances[trial % instances.size()];
    const BipartiteGraph g = wide_graph([&](int k) {
      return suite_instance(name).factory(0.01 * k, 100 + trial);
    });
    const std::int64_t expected = maximum_matching_cardinality(g);
    RunConfig config;
    config.direction_optimizing = rng.below(4) != 0;
    config.alpha = alphas[static_cast<std::size_t>(rng.below(alphas.size()))];
    config.bottom_up_kernel = BottomUpKernel::kWord;
    config.threads = random_width(rng);
    Matching m = randomized_greedy(g, seed);
    const RunStats stats = ms_bfs_graft(g, m, config);
    ASSERT_EQ(stats.threads_used, config.threads) << "trial seed " << seed;
    ASSERT_EQ(stats.final_cardinality, expected)
        << name << " trial seed " << seed
        << " dir-opt=" << config.direction_optimizing
        << " alpha=" << config.alpha << " threads=" << config.threads;
    ASSERT_TRUE(is_valid_matching(g, m)) << "trial seed " << seed;
  }
}

}  // namespace
}  // namespace graftmatch
