// Exhaustive small-graph cross-validation: hundreds of tiny random
// bipartite graphs, every library algorithm, compared against an
// INDEPENDENT reference implementation (Kuhn's augmenting-path
// algorithm, written here in the test, sharing no code with the
// library). Small graphs hit degenerate shapes -- empty rows, isolated
// vertices, complete blocks, parallel structure collapsing to serial --
// far more densely than large workloads do.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <tuple>
#include <vector>

#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/parallel.hpp"

// Sanitized builds run the exhaustive enumerations 10-20x slower;
// subsample the big cells there (deterministically) instead of timing
// out. GRAFTMATCH_TSAN_ACTIVE comes from runtime/parallel.hpp.
#if GRAFTMATCH_TSAN_ACTIVE || defined(__SANITIZE_ADDRESS__)
#define GRAFTMATCH_EXH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAFTMATCH_EXH_SANITIZED 1
#endif
#endif
#ifndef GRAFTMATCH_EXH_SANITIZED
#define GRAFTMATCH_EXH_SANITIZED 0
#endif

namespace graftmatch {
namespace {

// ---- independent reference: Kuhn's algorithm over an adjacency matrix.
class KuhnReference {
 public:
  KuhnReference(int nx, int ny, const std::vector<std::vector<bool>>& adj)
      : nx_(nx), ny_(ny), adj_(adj), mate_y_(static_cast<std::size_t>(ny), -1) {}

  int solve() {
    int result = 0;
    for (int x = 0; x < nx_; ++x) {
      seen_.assign(static_cast<std::size_t>(ny_), false);
      if (try_augment(x)) ++result;
    }
    return result;
  }

 private:
  bool try_augment(int x) {
    for (int y = 0; y < ny_; ++y) {
      if (!adj_[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] ||
          seen_[static_cast<std::size_t>(y)]) {
        continue;
      }
      seen_[static_cast<std::size_t>(y)] = true;
      if (mate_y_[static_cast<std::size_t>(y)] < 0 ||
          try_augment(mate_y_[static_cast<std::size_t>(y)])) {
        mate_y_[static_cast<std::size_t>(y)] = x;
        return true;
      }
    }
    return false;
  }

  int nx_;
  int ny_;
  const std::vector<std::vector<bool>>& adj_;
  std::vector<int> mate_y_;
  std::vector<bool> seen_;
};

struct SmallCase {
  BipartiteGraph graph;
  int reference = 0;
};

SmallCase random_small_case(Xoshiro256& rng) {
  const int nx = 1 + static_cast<int>(rng.below(12));
  const int ny = 1 + static_cast<int>(rng.below(12));
  // Density spans near-empty to complete.
  const double density = rng.uniform();
  std::vector<std::vector<bool>> adj(
      static_cast<std::size_t>(nx),
      std::vector<bool>(static_cast<std::size_t>(ny), false));
  EdgeList list;
  list.nx = nx;
  list.ny = ny;
  for (int x = 0; x < nx; ++x) {
    for (int y = 0; y < ny; ++y) {
      if (rng.uniform() < density) {
        adj[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] = true;
        list.edges.push_back({x, y});
      }
    }
  }
  SmallCase result{BipartiteGraph::from_edges(list), 0};
  KuhnReference reference(nx, ny, adj);
  result.reference = reference.solve();
  return result;
}

using AlgoFn = std::function<RunStats(const BipartiteGraph&, Matching&)>;

struct NamedAlgo {
  const char* name;
  AlgoFn run;
};

std::vector<NamedAlgo> all_algorithms() {
  return {
      {"graft",
       [](const BipartiteGraph& g, Matching& m) { return ms_bfs_graft(g, m); }},
      {"graft-noopt",
       [](const BipartiteGraph& g, Matching& m) {
         RunConfig c;
         c.direction_optimizing = false;
         return ms_bfs_graft(g, m, c);
       }},
      {"msbfs",
       [](const BipartiteGraph& g, Matching& m) { return ms_bfs(g, m); }},
      {"pf",
       [](const BipartiteGraph& g, Matching& m) { return pothen_fan(g, m); }},
      {"pr",
       [](const BipartiteGraph& g, Matching& m) { return push_relabel(g, m); }},
      {"hk",
       [](const BipartiteGraph& g, Matching& m) { return hopcroft_karp(g, m); }},
      {"ssbfs",
       [](const BipartiteGraph& g, Matching& m) { return ss_bfs(g, m); }},
      {"ssdfs",
       [](const BipartiteGraph& g, Matching& m) { return ss_dfs(g, m); }},
  };
}

class ExhaustiveSmall : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExhaustiveSmall, AllAlgorithmsMatchKuhnReference) {
  Xoshiro256 rng(GetParam());
  const auto algorithms = all_algorithms();
  // 50 random graphs per seed parameter, every algorithm, three
  // different starting matchings each.
  for (int round = 0; round < 50; ++round) {
    const SmallCase test_case = random_small_case(rng);
    const BipartiteGraph& g = test_case.graph;
    for (const NamedAlgo& algo : algorithms) {
      for (int start = 0; start < 3; ++start) {
        Matching m = start == 0   ? Matching(g.num_x(), g.num_y())
                     : start == 1 ? greedy_maximal(g)
                                  : karp_sipser(g, GetParam() + round);
        algo.run(g, m);
        ASSERT_EQ(m.cardinality(), test_case.reference)
            << algo.name << " round=" << round << " start=" << start
            << " nx=" << g.num_x() << " ny=" << g.num_y()
            << " m=" << g.num_edges();
        ASSERT_TRUE(is_valid_matching(g, m)) << algo.name;
        ASSERT_TRUE(is_maximum_matching(g, m)) << algo.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveSmall,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// DM/BTF on the same tiny-graph distribution: decomposition block sizes
// must be consistent with the reference matching number, and the BTF
// structural checks must hold.
class ExhaustiveDm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExhaustiveDm, DecompositionConsistent) {
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const SmallCase test_case = random_small_case(rng);
    const BipartiteGraph& g = test_case.graph;
    const DmDecomposition dm = dm_decompose(g);
    EXPECT_EQ(dm.structural_rank(), test_case.reference);
    // Square part perfectly matched; H has column surplus; V row surplus.
    EXPECT_EQ(dm.rows_in(DmBlock::kSquare), dm.cols_in(DmBlock::kSquare));
    EXPECT_GE(dm.cols_in(DmBlock::kHorizontal),
              dm.rows_in(DmBlock::kHorizontal));
    EXPECT_GE(dm.rows_in(DmBlock::kVertical), dm.cols_in(DmBlock::kVertical));
    const BlockTriangularForm btf = block_triangular_form(g, dm);
    EXPECT_TRUE(verify_btf(g, btf)) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveDm, ::testing::Values(5, 6, 7, 8));

// ---- kernelization on EVERY bipartite graph up to 4+4 vertices.
//
// Complete enumeration (one graph per edge-subset bitmask, ~75k graphs
// across the 16 (nx, ny) cells, split one cell per test): reduce with
// the degree-1 pipeline, run every registry solver on the kernel,
// reconstruct, and require the unreduced matching number from the Kuhn
// reference. This hits every degenerate shape the reduction rules can
// meet -- empty rows, pendant chains, stars, complete blocks -- by
// construction rather than by sampling. Every solve asks for `threads`
// and, at <= 16 edges, must run one wide.
void check_reduce_cell(int nx, int ny, int threads) {
  const int bits = nx * ny;
  const std::uint64_t total = std::uint64_t{1} << bits;
#if GRAFTMATCH_EXH_SANITIZED
  // Prime strides keep the subsample spread across edge patterns.
  const std::uint64_t stride = bits >= 12 ? 97 : (bits >= 8 ? 7 : 1);
#else
  const std::uint64_t stride = 1;
#endif
  const auto solvers = engine::solver_registry();
  std::uint64_t index = 0;
  for (std::uint64_t mask = 0; mask < total; mask += stride, ++index) {
    std::vector<std::vector<bool>> adj(
        static_cast<std::size_t>(nx),
        std::vector<bool>(static_cast<std::size_t>(ny), false));
    EdgeList list;
    list.nx = nx;
    list.ny = ny;
    for (int bit = 0; bit < bits; ++bit) {
      if ((mask >> bit) & 1u) {
        const int x = bit / ny;
        const int y = bit % ny;
        adj[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] = true;
        list.edges.push_back({x, y});
      }
    }
    const BipartiteGraph g = BipartiteGraph::from_edges(list);
    KuhnReference reference(nx, ny, adj);
    const int nu = reference.solve();

    const reduce::Reduction red =
        reduce::reduce_graph(g, ReduceMode::kDegree1);
    const BipartiteGraph& kernel = reduce::solve_graph(red, g);
    for (const engine::SolverInfo& solver : solvers) {
      Matching kernel_m(kernel.num_x(), kernel.num_y());
      RunConfig config;
      config.threads = threads;
      solver.run(kernel, kernel_m, config);
      const Matching m = reduce::reconstruct_matching(g, red, kernel_m);
      ASSERT_EQ(m.cardinality(), nu)
          << solver.name << " nx=" << nx << " ny=" << ny << " mask=" << mask
          << " " << reduce::debug_summary(red);
      ASSERT_TRUE(is_maximum_matching(g, m))
          << solver.name << " mask=" << mask;
    }

    // End-to-end through the engine driver on a rotating solver, so the
    // engine::run wiring (init on kernel, stats translation) sees the
    // same complete graph population without multiplying the runtime.
    const engine::SolverInfo& solver = solvers[index % solvers.size()];
    RunConfig config;
    config.threads = threads;
    config.reduce = ReduceMode::kDegree1;
    Matching m;
    const RunStats stats = engine::run(solver.name, "none", g, m, config);
    ASSERT_EQ(m.cardinality(), nu)
        << solver.name << " nx=" << nx << " ny=" << ny << " mask=" << mask;
    ASSERT_EQ(stats.final_cardinality, nu) << solver.name;
    ASSERT_TRUE(stats.reduce.collected) << solver.name;
    ASSERT_EQ(stats.threads_used, 1) << solver.name << " mask=" << mask;
  }
}

class ExhaustiveReduce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExhaustiveReduce, EveryGraphEverySolverMatchesUnreduced) {
  const auto [nx, ny] = GetParam();
  check_reduce_cell(nx, ny, 0);
}

INSTANTIATE_TEST_SUITE_P(Cells, ExhaustiveReduce,
                         ::testing::Combine(::testing::Range(1, 5),
                                            ::testing::Range(1, 5)));

// Four host threads solve the (3, 3) cell at once at width 4. Applied
// verbatim, that width oversubscribed the cores on graphs of <= 9 edges
// (under `ctest -j4` on 4 vCPUs a cell took minutes, not its 0.05 s).
TEST(ExhaustiveReduceConcurrent, FourHostThreadsAtWidthFourMeetADeadline) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> hosts;
  for (int h = 0; h < 4; ++h) {
    hosts.emplace_back([] {
      SessionContext session;
      const SessionScope bind(session);
      check_reduce_cell(3, 3, 4);
    });
  }
  for (std::thread& host : hosts) host.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(20));
}

}  // namespace
}  // namespace graftmatch
