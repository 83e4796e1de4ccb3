// Per-algorithm tests for the baseline maximum-matching algorithms:
// hand-crafted graphs with known optima, configuration knobs, and stats
// plausibility. (Cross-algorithm agreement at scale lives in
// test_property_sweep.cpp.)
#include <gtest/gtest.h>

#include <cmath>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/baselines/pothen_fan.hpp"
#include "graftmatch/baselines/push_relabel.hpp"
#include "graftmatch/baselines/ss_bfs.hpp"
#include "graftmatch/baselines/ss_dfs.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

// Chain trap: greedy matches x0-y1, forcing a length-3 augmenting path.
BipartiteGraph chain_trap() {
  EdgeList list;
  list.nx = 2;
  list.ny = 2;
  list.edges = {{0, 0}, {0, 1}, {1, 1}};
  return BipartiteGraph::from_edges(list);
}

// Deeper trap: optimal requires a length-5 path through three trees.
BipartiteGraph deep_trap() {
  EdgeList list;
  list.nx = 3;
  list.ny = 3;
  list.edges = {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}};
  return BipartiteGraph::from_edges(list);
}

// The worked example of the paper's Fig. 2(a): 6 x 6, maximal matching
// {x3-y1, x4-y2, x5-y3(paper's y5?)} -- we encode the figure's edges.
BipartiteGraph figure2_graph() {
  EdgeList list;
  list.nx = 6;
  list.ny = 6;
  // Vertices x1..x6 / y1..y6 map to indices 0..5.
  list.edges = {{0, 0}, {0, 1},          // x1 ~ y1, y2
                {2, 0}, {2, 1}, {2, 2},  // x3 ~ y1, y2, y3
                {1, 2}, {1, 4},          // x2 ~ y3, y5
                {3, 1}, {3, 3},          // x4 ~ y2, y4
                {4, 2}, {4, 4},          // x5 ~ y3, y5
                {5, 3}, {5, 5}};         // x6 ~ y4, y6
  return BipartiteGraph::from_edges(list);
}

template <typename Algorithm>
void expect_solves(Algorithm&& algorithm, const BipartiteGraph& g,
                   std::int64_t expected, const char* name) {
  Matching m(g.num_x(), g.num_y());
  const RunStats stats = algorithm(g, m);
  EXPECT_EQ(m.cardinality(), expected) << name;
  EXPECT_TRUE(is_maximum_matching(g, m)) << name;
  EXPECT_EQ(stats.final_cardinality, expected) << name;
  EXPECT_EQ(stats.final_cardinality - stats.initial_cardinality,
            stats.augmentations)
      << name << ": each augmentation adds exactly one edge";
}

TEST(SsBfs, SolvesTraps) {
  expect_solves([](auto& g, auto& m) { return ss_bfs(g, m); }, chain_trap(),
                2, "chain");
  expect_solves([](auto& g, auto& m) { return ss_bfs(g, m); }, deep_trap(),
                3, "deep");
  expect_solves([](auto& g, auto& m) { return ss_bfs(g, m); },
                figure2_graph(), 6, "figure2");
}

TEST(SsBfs, FindsShortestPathsFromScratch) {
  const BipartiteGraph g = deep_trap();
  Matching m(3, 3);
  const RunStats stats = ss_bfs(g, m);
  // From an empty matching every augmentation is a single edge.
  EXPECT_EQ(stats.total_path_edges, 3);
  EXPECT_DOUBLE_EQ(stats.avg_path_length(), 1.0);
}

TEST(SsBfs, FailedTreeRetentionSkipsDeadVertices) {
  // x0 and x1 both see only y0: the second search must traverse almost
  // nothing because the first failure hides the shared tree.
  EdgeList list;
  list.nx = 3;
  list.ny = 1;
  list.edges = {{0, 0}, {1, 0}, {2, 0}};
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  Matching m(3, 1);
  const RunStats stats = ss_bfs(g, m);
  EXPECT_EQ(m.cardinality(), 1);
  // First search matches x0-y0 (1 edge). Second traverses (x1,y0) and
  // fails; y0's flag stays set, so the third search traverses only its
  // own adjacency scan of x2 (1 edge) and stops at the hidden vertex.
  EXPECT_LE(stats.edges_traversed, 4);
}

TEST(SsDfs, SolvesTraps) {
  expect_solves([](auto& g, auto& m) { return ss_dfs(g, m); }, chain_trap(),
                2, "chain");
  expect_solves([](auto& g, auto& m) { return ss_dfs(g, m); }, deep_trap(),
                3, "deep");
  expect_solves([](auto& g, auto& m) { return ss_dfs(g, m); },
                figure2_graph(), 6, "figure2");
}

TEST(PothenFan, SolvesTrapsSerial) {
  RunConfig config;
  config.threads = 1;
  expect_solves(
      [&config](auto& g, auto& m) { return pothen_fan(g, m, config); },
      chain_trap(), 2, "chain");
  expect_solves(
      [&config](auto& g, auto& m) { return pothen_fan(g, m, config); },
      figure2_graph(), 6, "figure2");
}

TEST(PothenFan, SolvesWithMultipleThreads) {
  RunConfig config;
  config.threads = 4;
  const BipartiteGraph g = graph_for_width(4, [](int k) {
    ChungLuParams params;
    params.nx = params.ny = 2000 * k;
    params.avg_degree = 6.0;
    return generate_chung_lu(params);
  });
  Matching m = greedy_maximal(g);
  EXPECT_EQ(pothen_fan(g, m, config).threads_used, 4);
  EXPECT_TRUE(is_maximum_matching(g, m));
}

TEST(PothenFan, FairnessToggleBothCorrect) {
  // Fairness flips the adjacency scan direction every phase; a solve of
  // two or more phases scans both ways.
  const BipartiteGraph g = figure2_graph();
  Matching m(g.num_x(), g.num_y());
  const RunStats stats = pothen_fan(g, m);
  EXPECT_GE(stats.phases, 2);
  EXPECT_EQ(m.cardinality(), 6);
}

TEST(PothenFan, LookaheadCountsEdges) {
  const BipartiteGraph g = chain_trap();
  Matching m(2, 2);
  const RunStats stats = pothen_fan(g, m);
  EXPECT_GT(stats.edges_traversed, 0);
  EXPECT_EQ(stats.algorithm, "Pothen-Fan");
}

TEST(HopcroftKarp, SolvesTraps) {
  expect_solves([](auto& g, auto& m) { return hopcroft_karp(g, m); },
                chain_trap(), 2, "chain");
  expect_solves([](auto& g, auto& m) { return hopcroft_karp(g, m); },
                deep_trap(), 3, "deep");
  expect_solves([](auto& g, auto& m) { return hopcroft_karp(g, m); },
                figure2_graph(), 6, "figure2");
}

TEST(HopcroftKarp, PhaseBoundRespected) {
  // HK needs O(sqrt(n)) phases; on a 3000-vertex ER graph from an empty
  // matching that is a loose but meaningful bound.
  ErdosRenyiParams params;
  params.nx = params.ny = 1500;
  params.edges = 6000;
  const BipartiteGraph g = generate_erdos_renyi(params);
  Matching m(params.nx, params.ny);
  const RunStats stats = hopcroft_karp(g, m);
  EXPECT_TRUE(is_maximum_matching(g, m));
  EXPECT_LE(stats.phases, 2 * static_cast<std::int64_t>(
                                  std::sqrt(2.0 * params.nx)) + 10);
}

TEST(HopcroftKarp, ShortestPathsFirst) {
  const BipartiteGraph g = deep_trap();
  Matching m(3, 3);
  const RunStats stats = hopcroft_karp(g, m);
  // From empty, all three augmenting paths have length 1 (one phase).
  EXPECT_EQ(stats.phases, 2);  // one productive + one terminating
  EXPECT_DOUBLE_EQ(stats.avg_path_length(), 1.0);
}

TEST(PushRelabel, SolvesTraps) {
  expect_solves([](auto& g, auto& m) { return push_relabel(g, m); },
                chain_trap(), 2, "chain");
  expect_solves([](auto& g, auto& m) { return push_relabel(g, m); },
                deep_trap(), 3, "deep");
  expect_solves([](auto& g, auto& m) { return push_relabel(g, m); },
                figure2_graph(), 6, "figure2");
}

TEST(PushRelabel, HonorsTuningKnobs) {
  // The paper's relabel frequency follows the width (2 at width 1, 16
  // wider); 20,000 edges make widths 1-3 reachable, so both run.
  ErdosRenyiParams params;
  params.nx = params.ny = 6000;
  params.edges = 20000;
  const BipartiteGraph g = generate_erdos_renyi(params);
  for (const int threads : {1, 2, 3}) {
    RunConfig config;
    config.threads = threads;
    Matching m = greedy_maximal(g);
    const RunStats stats = push_relabel(g, m, config);
    EXPECT_EQ(stats.threads_used, threads);
    EXPECT_TRUE(is_maximum_matching(g, m)) << "threads=" << threads;
  }
}

TEST(PushRelabel, ParallelThreadsCorrect) {
  ChungLuParams params;
  params.nx = params.ny = 1500;
  params.avg_degree = 6.0;
  const BipartiteGraph g = generate_chung_lu(params);
  for (const int threads : {1, 2, 4}) {
    RunConfig config;
    config.threads = threads;
    Matching m = greedy_maximal(g);
    push_relabel(g, m, config);
    EXPECT_TRUE(is_maximum_matching(g, m)) << threads;
  }
}

TEST(PushRelabel, StartsFromEmptyMatching) {
  ErdosRenyiParams params;
  params.nx = params.ny = 400;
  params.edges = 1600;
  const BipartiteGraph g = generate_erdos_renyi(params);
  Matching m(params.nx, params.ny);
  push_relabel(g, m);
  EXPECT_TRUE(is_maximum_matching(g, m));
}

TEST(AllBaselines, HandleEdgelessGraph) {
  EdgeList list;
  list.nx = 4;
  list.ny = 4;
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  const auto expect_zero = [&](auto&& algorithm) {
    Matching m(4, 4);
    algorithm(g, m);
    EXPECT_EQ(m.cardinality(), 0);
  };
  expect_zero([](auto& g2, auto& m) { return ss_bfs(g2, m); });
  expect_zero([](auto& g2, auto& m) { return ss_dfs(g2, m); });
  expect_zero([](auto& g2, auto& m) { return pothen_fan(g2, m); });
  expect_zero([](auto& g2, auto& m) { return hopcroft_karp(g2, m); });
  expect_zero([](auto& g2, auto& m) { return push_relabel(g2, m); });
}

}  // namespace
}  // namespace graftmatch
