// Parameterized property sweep: EVERY maximum-matching algorithm, on
// EVERY suite family, from EVERY initializer, across seeds, must produce
// a valid matching whose cardinality equals the Hopcroft-Karp oracle and
// which passes the independent Koenig certificate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "graftmatch/graftmatch.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

enum class Algo { kGraft, kGraftSerial, kMsBfs, kPF, kPR, kHK, kSSBFS, kSSDFS };
enum class Init { kNone, kGreedy, kRandomGreedy, kKarpSipser, kParallelKS };

std::string to_string(Algo algo) {
  switch (algo) {
    case Algo::kGraft: return "graft";
    case Algo::kGraftSerial: return "graft1t";
    case Algo::kMsBfs: return "msbfs";
    case Algo::kPF: return "pf";
    case Algo::kPR: return "pr";
    case Algo::kHK: return "hk";
    case Algo::kSSBFS: return "ssbfs";
    case Algo::kSSDFS: return "ssdfs";
  }
  return "?";
}

std::string to_string(Init init) {
  switch (init) {
    case Init::kNone: return "none";
    case Init::kGreedy: return "greedy";
    case Init::kRandomGreedy: return "rgreedy";
    case Init::kKarpSipser: return "ks";
    case Init::kParallelKS: return "pks";
  }
  return "?";
}

/// The width each algorithm asks for; 0 leaves it to the runtime
/// default (ms_bfs) or to a serial algorithm.
int requested_width(Algo algo) {
  switch (algo) {
    case Algo::kGraft:
    case Algo::kPF: return 4;
    case Algo::kGraftSerial: return 1;
    case Algo::kPR: return 2;
    default: return 0;
  }
}

RunStats run_algorithm(Algo algo, const BipartiteGraph& g, Matching& m) {
  RunConfig config;
  config.threads = requested_width(algo);
  switch (algo) {
    case Algo::kGraft:
    case Algo::kGraftSerial:
      return ms_bfs_graft(g, m, config);
    case Algo::kMsBfs:
      return ms_bfs(g, m);
    case Algo::kPF:
      return pothen_fan(g, m, config);
    case Algo::kPR:
      return push_relabel(g, m, config);
    case Algo::kHK:
      return hopcroft_karp(g, m);
    case Algo::kSSBFS:
      return ss_bfs(g, m);
    case Algo::kSSDFS:
      return ss_dfs(g, m);
  }
  return {};
}

Matching make_initial(Init init, const BipartiteGraph& g,
                      std::uint64_t seed) {
  switch (init) {
    case Init::kNone: return Matching(g.num_x(), g.num_y());
    case Init::kGreedy: return greedy_maximal(g);
    case Init::kRandomGreedy: return randomized_greedy(g, seed);
    case Init::kKarpSipser: return karp_sipser(g, seed);
    case Init::kParallelKS: return parallel_karp_sipser(g, seed, 4);
  }
  return Matching(g.num_x(), g.num_y());
}

// ---------------------------------------------------------------------
// Sweep 1: algorithm x suite instance (randomized-greedy init).

using AlgoInstance = std::tuple<Algo, std::string>;

class AlgorithmOnSuite : public ::testing::TestWithParam<AlgoInstance> {};

TEST_P(AlgorithmOnSuite, ReachesVerifiedMaximum) {
  const auto& [algo, instance_name] = GetParam();
  // The first of sizes 0.01, 0.02, ... on which the algorithm runs as
  // wide as it asks.
  const int width = requested_width(algo);
  const BipartiteGraph g = graph_for_width(std::max(width, 1), [&](int k) {
    return suite_instance(instance_name).factory(0.01 * k, 7);
  });
  const std::int64_t expected = maximum_matching_cardinality(g);

  Matching m = randomized_greedy(g, 11);
  const RunStats stats = run_algorithm(algo, g, m);
  if (width > 0) {
    EXPECT_EQ(stats.threads_used, width);
  }
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximum_matching(g, m));
  EXPECT_EQ(m.cardinality(), expected);
  EXPECT_EQ(stats.final_cardinality, expected);
  EXPECT_EQ(stats.augmentations,
            stats.final_cardinality - stats.initial_cardinality);
}

std::vector<AlgoInstance> algo_instance_grid() {
  std::vector<AlgoInstance> grid;
  for (const Algo algo : {Algo::kGraft, Algo::kGraftSerial, Algo::kMsBfs,
                          Algo::kPF, Algo::kPR, Algo::kHK, Algo::kSSBFS,
                          Algo::kSSDFS}) {
    for (const SuiteInstance& instance : benchmark_suite()) {
      grid.emplace_back(algo, instance.name);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmOnSuite, ::testing::ValuesIn(algo_instance_grid()),
    [](const ::testing::TestParamInfo<AlgoInstance>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 2: initializer x seed on one instance per class; every
// initializer must be a valid maximal matching and lead MS-BFS-Graft to
// the same maximum.

using InitSeed = std::tuple<Init, std::uint64_t, std::string>;

class InitializerSweep : public ::testing::TestWithParam<InitSeed> {};

TEST_P(InitializerSweep, InitializesAndConverges) {
  const auto& [init, seed, instance_name] = GetParam();
  const BipartiteGraph g = suite_instance(instance_name).factory(0.008, seed);
  const std::int64_t expected = maximum_matching_cardinality(g);

  Matching m = make_initial(init, g, seed);
  EXPECT_TRUE(is_valid_matching(g, m));
  if (init != Init::kNone) {
    EXPECT_TRUE(is_maximal_matching(g, m)) << "initializer not maximal";
    EXPECT_GE(2 * m.cardinality(), expected)
        << "maximal matching below half of maximum";
  }
  ms_bfs_graft(g, m);
  EXPECT_EQ(m.cardinality(), expected);
  EXPECT_TRUE(is_maximum_matching(g, m));
}

std::vector<InitSeed> init_seed_grid() {
  std::vector<InitSeed> grid;
  for (const Init init : {Init::kNone, Init::kGreedy, Init::kRandomGreedy,
                          Init::kKarpSipser, Init::kParallelKS}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      for (const char* instance :
           {"kkt_power-like", "cit-patents-like", "wikipedia-like"}) {
        grid.emplace_back(init, seed, instance);
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InitializerSweep, ::testing::ValuesIn(init_seed_grid()),
    [](const ::testing::TestParamInfo<InitSeed>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_s" +
                         std::to_string(std::get<1>(info.param)) + "_" +
                         std::get<2>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 3: alpha sensitivity -- any alpha > 1 must leave results exact.

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, CorrectForAllAlpha) {
  const double alpha = GetParam();
  const BipartiteGraph g = suite_instance("web-google-like").factory(0.01, 5);
  const std::int64_t expected = maximum_matching_cardinality(g);
  RunConfig config;
  config.alpha = alpha;
  Matching m = randomized_greedy(g, 5);
  ms_bfs_graft(g, m, config);
  EXPECT_EQ(m.cardinality(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlphaSweep,
                         ::testing::Values(1.1, 2.0, 3.0, 5.0, 8.0, 16.0,
                                           64.0, 1024.0));

// ---------------------------------------------------------------------
// Sweep 4: thread counts (including oversubscription) keep every
// parallel algorithm exact.

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, ParallelAlgorithmsExact) {
  const int threads = GetParam();
  const BipartiteGraph g = graph_for_width(threads, [](int k) {
    return suite_instance("copapers-like").factory(0.01 * k, 2);
  });
  const std::int64_t expected = maximum_matching_cardinality(g);

  RunConfig config;
  config.threads = threads;

  Matching m1 = randomized_greedy(g, 3);
  EXPECT_EQ(ms_bfs_graft(g, m1, config).threads_used, threads);
  EXPECT_EQ(m1.cardinality(), expected) << "graft threads=" << threads;

  Matching m2 = randomized_greedy(g, 3);
  EXPECT_EQ(pothen_fan(g, m2, config).threads_used, threads);
  EXPECT_EQ(m2.cardinality(), expected) << "pf threads=" << threads;

  Matching m3 = randomized_greedy(g, 3);
  EXPECT_EQ(push_relabel(g, m3, config).threads_used, threads);
  EXPECT_EQ(m3.cardinality(), expected) << "pr threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThreadSweep, ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace graftmatch
