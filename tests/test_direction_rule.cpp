// Direction-rule and word-kernel battery.
//
// Covers the traversal backend end to end: the paper's alpha rule and
// its degenerate-input clamps (prefer_bottom_up), the per-run
// `direction` counters against the frontier trace, word-granular
// claims on AtomicBitmap (fuzzed against a serial bit model,
// word-boundary and tail-word cases included), and the headline
// invariance property: direction optimization on/off x alpha x
// BottomUpKernel must land on the SAME maximum cardinality -- on
// exhaustive tiny graphs (against an independent Kuhn reference), on
// word-boundary widths, and on the benchmark suite across seeds.
// alpha = 1e6 makes nearly every level bottom-up.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/epoch_array.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "json_check.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------
// prefer_bottom_up: the fixed rule and its degenerate-input clamps.

TEST(PreferBottomUp, NormalRegimeMatchesPaperRule) {
  // |F| >= unvisited / alpha with alpha = 5: threshold at 40.
  EXPECT_TRUE(engine::prefer_bottom_up(40, 200, 5.0));
  EXPECT_TRUE(engine::prefer_bottom_up(100, 200, 5.0));
  EXPECT_FALSE(engine::prefer_bottom_up(39, 200, 5.0));
  EXPECT_FALSE(engine::prefer_bottom_up(1, 200, 5.0));
}

TEST(PreferBottomUp, ExhaustedSideNeverPrefersBottomUp) {
  // unvisited == 0 used to satisfy `frontier >= 0/alpha` vacuously and
  // steer into a bottom-up scan over an empty target side.
  EXPECT_FALSE(engine::prefer_bottom_up(100, 0, 5.0));
  EXPECT_FALSE(engine::prefer_bottom_up(100, -1, 5.0));
  EXPECT_FALSE(engine::prefer_bottom_up(0, 200, 5.0));
  EXPECT_FALSE(engine::prefer_bottom_up(-3, 200, 5.0));
  EXPECT_FALSE(engine::prefer_bottom_up(0, 0, 5.0));
}

TEST(PreferBottomUp, NonFiniteOrNonPositiveAlphaIsTopDown) {
  // alpha = +inf used to make unvisited/alpha == 0 and force bottom-up
  // on every level; NaN made the comparison false-but-unordered.
  EXPECT_FALSE(engine::prefer_bottom_up(100, 200, kInf));
  EXPECT_FALSE(engine::prefer_bottom_up(100, 200, -kInf));
  EXPECT_FALSE(engine::prefer_bottom_up(100, 200, kNaN));
  EXPECT_FALSE(engine::prefer_bottom_up(100, 200, 0.0));
  EXPECT_FALSE(engine::prefer_bottom_up(100, 200, -5.0));
}

TEST(MsBfsGraft, RejectsNonFiniteAlpha) {
  EdgeList list;
  list.nx = list.ny = 2;
  list.edges = {{0, 0}, {1, 1}};
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  for (const double alpha : {kInf, kNaN, 0.0, -1.0}) {
    RunConfig config;
    config.alpha = alpha;
    Matching m(2, 2);
    EXPECT_THROW(ms_bfs_graft(g, m, config), std::invalid_argument)
        << "alpha=" << alpha;
  }
}

// ---------------------------------------------------------------------
// AtomicBitmap::claim_word: fuzz against a serial bit model.

TEST(ClaimWord, EmptyMaskAndFullWordAreNoOps) {
  AtomicBitmap bits;
  bits.reset(64);
  bool fell_back = true;
  EXPECT_EQ(bits.claim_word(0, 0, &fell_back), 0u);
  EXPECT_FALSE(fell_back);
  EXPECT_EQ(bits.claim_word(0, ~std::uint64_t{0}, &fell_back),
            ~std::uint64_t{0});
  EXPECT_FALSE(fell_back);
  // Every bit now set: a second claim of anything wins nothing.
  EXPECT_EQ(bits.claim_word(0, ~std::uint64_t{0}), 0u);
  EXPECT_EQ(bits.claim_word(0, 0x5a5a5a5a5a5a5a5aULL), 0u);
}

TEST(ClaimWord, FuzzedMasksMatchSerialModel) {
  // Widths straddling word boundaries so tail words and multi-word
  // indexing both get exercised; masks fuzzed against a plain-uint64
  // model of the claim contract: won == mask & ~before, word becomes
  // before | mask, repeated claims win nothing.
  Xoshiro256 rng(0xD19E575ULL);
  for (const std::size_t width : {1u, 63u, 64u, 65u, 127u, 128u, 200u}) {
    AtomicBitmap bits;
    bits.reset(width);
    const std::size_t words = bits.word_count();
    std::vector<std::uint64_t> model(words, 0);
    for (int trial = 0; trial < 400; ++trial) {
      const auto w = static_cast<std::size_t>(rng.below(words));
      const std::uint64_t mask = rng() & rng();  // ~25% density
      const std::uint64_t expect_won = mask & ~model[w];
      bool fell_back = false;
      const std::uint64_t won = bits.claim_word(w, mask, &fell_back);
      EXPECT_EQ(won, expect_won);
      EXPECT_FALSE(fell_back);  // no contention in a serial fuzz loop
      model[w] |= mask;
      EXPECT_EQ(bits.load_word(w), model[w]);
      // Immediately re-claiming the same mask must win nothing.
      EXPECT_EQ(bits.claim_word(w, mask), 0u);
    }
    // Per-bit view agrees with the word-granular model.
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_EQ(bits.test(i),
                ((model[i / 64] >> (i % 64)) & 1u) != 0u);
    }
  }
}

TEST(ClaimWord, SerialVariantMatchesAtomicVariant) {
  Xoshiro256 rng(0xABCDEFULL);
  AtomicBitmap atomic_bits;
  AtomicBitmap serial_bits;
  atomic_bits.reset(192);
  serial_bits.reset(192);
  for (int trial = 0; trial < 300; ++trial) {
    const auto w = static_cast<std::size_t>(rng.below(3));
    const std::uint64_t mask = rng() & rng();
    EXPECT_EQ(atomic_bits.claim_word(w, mask),
              serial_bits.claim_word_serial(w, mask));
    EXPECT_EQ(atomic_bits.load_word(w), serial_bits.load_word(w));
  }
}

TEST(ClaimWord, PerBitClaimsInterleaveExactlyOnce) {
  // Mixing claim() (per-bit) and claim_word() on the same word must
  // preserve exactly-once: total wins across both granularities equals
  // the number of distinct bits set.
  AtomicBitmap bits;
  bits.reset(64);
  for (const std::size_t i : {0u, 5u, 9u, 63u}) {
    EXPECT_TRUE(bits.claim(i));
  }
  const std::uint64_t preset = (std::uint64_t{1} << 0) |
                               (std::uint64_t{1} << 5) |
                               (std::uint64_t{1} << 9) |
                               (std::uint64_t{1} << 63);
  const std::uint64_t won = bits.claim_word(0, ~std::uint64_t{0});
  EXPECT_EQ(won, ~preset);
  EXPECT_FALSE(bits.claim(17));  // already claimed via the word
}

// ---------------------------------------------------------------------
// Invariance: every direction x alpha x kernel combination reaches the
// same maximum cardinality.

struct Combo {
  bool direction_optimizing;
  double alpha;
  BottomUpKernel kernel;

  void apply(RunConfig& config) const {
    config.direction_optimizing = direction_optimizing;
    config.alpha = alpha;
    config.bottom_up_kernel = kernel;
  }
  std::string label() const {
    return std::string(" dir-opt=") + (direction_optimizing ? "on" : "off") +
           " alpha=" + std::to_string(alpha) + " kernel=" + to_string(kernel);
  }
};

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (const bool direction_optimizing : {true, false}) {
    for (const double alpha : {1.5, 5.0, 1e6}) {
      for (const BottomUpKernel kernel :
           {BottomUpKernel::kBit, BottomUpKernel::kWord}) {
        combos.push_back({direction_optimizing, alpha, kernel});
      }
    }
  }
  return combos;
}

void expect_all_combos_reach(const BipartiteGraph& g, std::int64_t expected,
                             std::uint64_t seed, const std::string& label) {
  for (const Combo& combo : all_combos()) {
    for (const int threads : {1, 4}) {
      RunConfig config;
      combo.apply(config);
      config.threads = threads;
      Matching m = randomized_greedy(g, seed);
      const RunStats stats = ms_bfs_graft(g, m, config);
      EXPECT_EQ(stats.threads_used, solve_width(g.num_edges(), threads))
          << label;
      EXPECT_EQ(stats.final_cardinality, expected)
          << label << combo.label() << " threads=" << threads;
      EXPECT_TRUE(is_valid_matching(g, m)) << label;
      EXPECT_TRUE(is_maximum_matching(g, m)) << label;
    }
  }
}

// Independent reference for the tiny-graph sweep: Kuhn's augmenting
// path algorithm over an adjacency matrix, sharing no library code.
int kuhn_cardinality(int nx, int ny,
                     const std::vector<std::vector<bool>>& adj) {
  std::vector<int> mate_y(static_cast<std::size_t>(ny), -1);
  std::vector<bool> seen;
  std::function<bool(int)> try_augment = [&](int x) {
    for (int y = 0; y < ny; ++y) {
      if (!adj[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] ||
          seen[static_cast<std::size_t>(y)]) {
        continue;
      }
      seen[static_cast<std::size_t>(y)] = true;
      if (mate_y[static_cast<std::size_t>(y)] < 0 ||
          try_augment(mate_y[static_cast<std::size_t>(y)])) {
        mate_y[static_cast<std::size_t>(y)] = x;
        return true;
      }
    }
    return false;
  };
  int result = 0;
  for (int x = 0; x < nx; ++x) {
    seen.assign(static_cast<std::size_t>(ny), false);
    if (try_augment(x)) ++result;
  }
  return result;
}

TEST(PolicyInvariance, ExhaustiveTinyGraphsMatchKuhnReference) {
  Xoshiro256 rng(0xBEEFCAFEULL);
  int graphs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int nx = 1 + static_cast<int>(rng.below(std::uint64_t{7}));
    const int ny = 1 + static_cast<int>(rng.below(std::uint64_t{7}));
    // Sweep edge density from near-empty to complete.
    const int percent = static_cast<int>(rng.below(std::uint64_t{101}));
    std::vector<std::vector<bool>> adj(
        static_cast<std::size_t>(nx),
        std::vector<bool>(static_cast<std::size_t>(ny), false));
    EdgeList list;
    list.nx = nx;
    list.ny = ny;
    for (int x = 0; x < nx; ++x) {
      for (int y = 0; y < ny; ++y) {
        if (static_cast<int>(rng.below(std::uint64_t{100})) < percent) {
          adj[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] = true;
          list.edges.push_back({x, y});
        }
      }
    }
    const BipartiteGraph g = BipartiteGraph::from_edges(list);
    const std::int64_t expected = kuhn_cardinality(nx, ny, adj);
    expect_all_combos_reach(g, expected, 1 + trial,
                            "tiny#" + std::to_string(trial));
    ++graphs;
  }
  EXPECT_EQ(graphs, 60);
}

TEST(PolicyInvariance, WordBoundaryWidths) {
  // Y-side widths straddling 64-bit word boundaries: the word kernel's
  // tail-mask handling is exactly what these widths stress.
  Xoshiro256 rng(0x60D60DULL);
  for (const int ny : {63, 64, 65, 127, 129}) {
    ErdosRenyiParams params;
    params.nx = 96;
    params.ny = ny;
    params.edges = 3 * (96 + ny);
    params.seed = static_cast<std::uint64_t>(1000 + ny);
    const BipartiteGraph g = generate_erdos_renyi(params);
    const std::int64_t expected = maximum_matching_cardinality(g);
    expect_all_combos_reach(g, expected, rng(),
                            "ny=" + std::to_string(ny));
  }
}

using SuiteSeed = std::tuple<std::string, std::uint64_t>;

class PolicyInvarianceOnSuite : public ::testing::TestWithParam<SuiteSeed> {};

TEST_P(PolicyInvarianceOnSuite, AllCombosReachOracleCardinality) {
  const auto& [instance_name, seed] = GetParam();
  // Large enough that the threads = 4 runs are 4 wide.
  const BipartiteGraph g = graph_for_width(4, [&](int k) {
    return suite_instance(instance_name).factory(0.006 * k, seed);
  });
  const std::int64_t expected = maximum_matching_cardinality(g);
  expect_all_combos_reach(g, expected, seed, instance_name);
}

std::vector<SuiteSeed> suite_seed_grid() {
  // Two instances per paper class (six generators), two seeds each.
  const std::vector<std::string> instances = {
      "hugetrace-like", "road_usa-like",    // scientific
      "copapers-like",  "rmat-like",        // scale-free
      "wikipedia-like", "web-google-like",  // web
  };
  std::vector<SuiteSeed> grid;
  for (const std::string& name : instances) {
    for (const std::uint64_t seed : {7ULL, 23ULL}) {
      grid.emplace_back(name, seed);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyInvarianceOnSuite, ::testing::ValuesIn(suite_seed_grid()),
    [](const ::testing::TestParamInfo<SuiteSeed>& info) {
      std::string name = std::get<0>(info.param) + "_s" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(PolicyInvariance, EverySolverIgnoresOrHonorsTheKnobs) {
  // Every solver receives the same RunConfig; no setting of the
  // direction, alpha or kernel knobs may change its answer.
  const BipartiteGraph g = suite_instance("copapers-like").factory(0.006, 5);
  const std::int64_t expected = maximum_matching_cardinality(g);
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    for (const Combo& combo : all_combos()) {
      RunConfig config;
      combo.apply(config);
      config.threads = 2;
      Matching m = randomized_greedy(g, 3);
      const RunStats stats = solver.run(g, m, config);
      EXPECT_EQ(stats.final_cardinality, expected)
          << solver.name << combo.label();
    }
  }
}

// ---------------------------------------------------------------------
// Stats plumbing: the per-level counters, the strict `direction` JSON
// block and the human formatter's non-default gating.

TEST(DirectionStats, CountersMatchFrontierTracePerPhase) {
  // The frontier trace records every level's direction, so it implies
  // the run's decisions, bottom-up levels and switches (each phase
  // starts top-down) and each phase's bottom-up level count.
  const BipartiteGraph g = suite_instance("copapers-like").factory(0.006, 3);
  for (const Combo& combo : all_combos()) {
    RunConfig config;
    combo.apply(config);
    config.collect_frontier_trace = true;
    config.collect_phase_stats = true;
    Matching m = randomized_greedy(g, 5);
    const RunStats stats = ms_bfs_graft(g, m, config);

    std::vector<std::int64_t> phase_bottom_up(
        static_cast<std::size_t>(stats.phases) + 1, 0);
    std::int64_t bottom_up = 0;
    std::int64_t switches = 0;
    std::int64_t phase = 0;
    bool last = false;
    for (const FrontierSample& sample : stats.frontier_trace) {
      if (sample.phase != phase) {
        phase = sample.phase;
        last = false;
      }
      phase_bottom_up[static_cast<std::size_t>(phase)] += sample.bottom_up;
      bottom_up += sample.bottom_up;
      switches += sample.bottom_up != last;
      last = sample.bottom_up;
    }
    const auto levels = static_cast<std::int64_t>(stats.frontier_trace.size());
    ASSERT_TRUE(stats.direction.collected) << combo.label();
    EXPECT_EQ(stats.direction.decisions,
              combo.direction_optimizing ? levels : 0)
        << combo.label();
    EXPECT_EQ(stats.direction.bottom_up_levels, bottom_up) << combo.label();
    EXPECT_EQ(stats.direction.switches, switches) << combo.label();
    if (!combo.direction_optimizing) {
      EXPECT_EQ(bottom_up, 0) << combo.label();
    }
    ASSERT_EQ(static_cast<std::int64_t>(stats.phase_stats.size()),
              stats.phases);
    for (const PhaseStats& row : stats.phase_stats) {
      EXPECT_EQ(row.bottom_up_levels,
                phase_bottom_up[static_cast<std::size_t>(row.phase)])
          << combo.label() << " phase " << row.phase;
    }
  }
}

TEST(DirectionStats, JsonBlockIsStrictAndNamed) {
  const BipartiteGraph g = suite_instance("wikipedia-like").factory(0.006, 9);
  RunConfig config;
  config.bottom_up_kernel = BottomUpKernel::kWord;
  Matching m = randomized_greedy(g, 2);
  const RunStats stats = ms_bfs_graft(g, m, config);

  ASSERT_TRUE(stats.direction.collected);
  EXPECT_EQ(stats.direction.kernel, BottomUpKernel::kWord);
  EXPECT_GT(stats.direction.decisions, 0);
  EXPECT_GE(stats.direction.decisions, stats.direction.bottom_up_levels);

  const std::string json = run_stats_json(stats);
  std::string error;
  testing::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid(&error)) << error;
  EXPECT_NE(json.find("\"direction\":{\"kernel\":\"word\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"word_commits\":"), std::string::npos);

  // Human formatter surfaces the kernel only when it differs from the
  // default, so default-config output stays byte-stable.
  EXPECT_NE(format_run_stats(stats).find("kernel=word"), std::string::npos);
  RunConfig default_config;
  Matching m2 = randomized_greedy(g, 2);
  const RunStats default_stats = ms_bfs_graft(g, m2, default_config);
  EXPECT_EQ(format_run_stats(default_stats).find("kernel="),
            std::string::npos);
}

TEST(DirectionStats, WordCountersOnlyMoveOnWordArm) {
  const BipartiteGraph g = suite_instance("wikipedia-like").factory(0.006, 4);
  RunConfig bit_config;
  bit_config.alpha = 1e6;  // nearly every level bottom-up
  bit_config.bottom_up_kernel = BottomUpKernel::kBit;
  Matching m_bit = randomized_greedy(g, 2);
  const RunStats bit_stats = ms_bfs_graft(g, m_bit, bit_config);
  EXPECT_EQ(bit_stats.direction.word_commits, 0);
  EXPECT_EQ(bit_stats.direction.word_fallbacks, 0);
  EXPECT_GT(bit_stats.direction.bottom_up_levels, 0);

  RunConfig word_config = bit_config;
  word_config.bottom_up_kernel = BottomUpKernel::kWord;
  Matching m_word = randomized_greedy(g, 2);
  const RunStats word_stats = ms_bfs_graft(g, m_word, word_config);
  EXPECT_GT(word_stats.direction.word_commits, 0);
  EXPECT_EQ(word_stats.final_cardinality, bit_stats.final_cardinality);
}

// ---------------------------------------------------------------------
// Enum round-trip for the kernel knob.

TEST(DirectionEnums, ParseAndToStringRoundTrip) {
  for (const BottomUpKernel kernel :
       {BottomUpKernel::kBit, BottomUpKernel::kWord}) {
    BottomUpKernel parsed{};
    EXPECT_TRUE(parse_bottom_up_kernel(to_string(kernel), parsed));
    EXPECT_EQ(parsed, kernel);
  }
  BottomUpKernel kernel{};
  EXPECT_FALSE(parse_bottom_up_kernel("simd", kernel));
  EXPECT_FALSE(parse_bottom_up_kernel("", kernel));
}

}  // namespace
}  // namespace graftmatch
