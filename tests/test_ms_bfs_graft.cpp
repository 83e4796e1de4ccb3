// Tests for the core MS-BFS-Graft algorithm: the paper's Fig. 2 worked
// example, the full configuration matrix (grafting x direction
// optimization x threads x alpha), statistics invariants, and the
// frontier trace.
#include <gtest/gtest.h>

#include <set>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/grid.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

// The paper's Fig. 2(a) graph (x1..x6, y1..y6 -> indices 0..5) with the
// figure's maximal matching {x3-y1, x4-y2, x5-y3, x6-y4}; x1, x2
// unmatched. The figure walks two phases: phase 1 augments
// (x2,y3,x5,y5), phase 2 grafts y2,y3 onto T(x1) and augments
// (x1,y2,x4,y4,x6,y6).
BipartiteGraph figure2_graph() {
  EdgeList list;
  list.nx = 6;
  list.ny = 6;
  list.edges = {{0, 0}, {0, 1}, {2, 0}, {2, 1}, {2, 2}, {1, 2}, {1, 4},
                {3, 1}, {3, 3}, {4, 2}, {4, 4}, {5, 3}, {5, 5}};
  return BipartiteGraph::from_edges(list);
}

Matching figure2_initial() {
  Matching m(6, 6);
  m.match(2, 0);  // x3-y1
  m.match(3, 1);  // x4-y2
  m.match(4, 2);  // x5-y3
  m.match(5, 3);  // x6-y4
  return m;
}

TEST(MsBfsGraft, SolvesFigure2FromPaperState) {
  const BipartiteGraph g = figure2_graph();
  Matching m = figure2_initial();
  RunConfig config;
  config.threads = 1;
  config.collect_frontier_trace = true;
  const RunStats stats = ms_bfs_graft(g, m, config);
  EXPECT_EQ(m.cardinality(), 6);
  EXPECT_TRUE(is_maximum_matching(g, m));
  // The initial matching leaves exactly two unmatched X vertices, so
  // two augmenting paths must be found (each augmentation adds one).
  EXPECT_EQ(stats.augmentations, 2);
  // At most: one productive phase per augmentation + the terminating
  // phase. (Bottom-up intra-level chaining can merge the productive
  // phases the figure walks through separately.)
  EXPECT_GE(stats.phases, 2);
  EXPECT_LE(stats.phases, 3);
}

TEST(MsBfsGraft, ConfigurationMatrixAllReachMaximum) {
  const BipartiteGraph g = graph_for_width(4, [](int k) {
    ChungLuParams params;
    params.nx = params.ny = 3000 * k;
    params.avg_degree = 6.0;
    params.seed = 3;
    return generate_chung_lu(params);
  });
  const std::int64_t expected = maximum_matching_cardinality(g);

  for (const bool grafting : {false, true}) {
    for (const bool dirop : {false, true}) {
      for (const int threads : {1, 2, 4}) {
        for (const double alpha : {2.0, 5.0, 50.0}) {
          RunConfig config;
          config.tree_grafting = grafting;
          config.direction_optimizing = dirop;
          config.threads = threads;
          config.alpha = alpha;
          Matching m = randomized_greedy(g, 1);
          const RunStats stats = ms_bfs_graft(g, m, config);
          ASSERT_EQ(stats.threads_used, threads);
          ASSERT_EQ(m.cardinality(), expected)
              << "graft=" << grafting << " dirop=" << dirop
              << " threads=" << threads << " alpha=" << alpha;
          ASSERT_TRUE(is_maximum_matching(g, m));
          ASSERT_EQ(stats.final_cardinality - stats.initial_cardinality,
                    stats.augmentations);
        }
      }
    }
  }
}

TEST(MsBfsGraft, MsBfsAliasDisablesBothFeatures) {
  const BipartiteGraph g = figure2_graph();
  Matching m = figure2_initial();
  const RunStats stats = ms_bfs(g, m);
  EXPECT_EQ(stats.algorithm, "MS-BFS");
  EXPECT_EQ(m.cardinality(), 6);
}

TEST(MsBfsGraft, AlgorithmNameReflectsConfig) {
  const BipartiteGraph g = figure2_graph();
  RunConfig config;
  Matching m = figure2_initial();
  EXPECT_EQ(ms_bfs_graft(g, m, config).algorithm, "MS-BFS-Graft");
  config.direction_optimizing = false;
  m = figure2_initial();
  EXPECT_EQ(ms_bfs_graft(g, m, config).algorithm, "MS-BFS+Graft");
  config.direction_optimizing = true;
  config.tree_grafting = false;
  m = figure2_initial();
  EXPECT_EQ(ms_bfs_graft(g, m, config).algorithm, "MS-BFS+DirOpt");
}

TEST(MsBfsGraft, StatsAreInternallyConsistent) {
  WebCrawlParams params;
  params.nx = params.ny = 4000;
  params.seed = 9;
  const BipartiteGraph g = generate_webcrawl(params);
  Matching m = randomized_greedy(g, 2);
  const std::int64_t initial = m.cardinality();
  const RunStats stats = ms_bfs_graft(g, m);

  EXPECT_EQ(stats.initial_cardinality, initial);
  EXPECT_EQ(stats.final_cardinality, m.cardinality());
  EXPECT_EQ(stats.augmentations, stats.final_cardinality - initial);
  EXPECT_GE(stats.phases, 1);
  EXPECT_GE(stats.seconds, 0.0);
  // Augmenting paths have odd length >= 1, so the sum is at least the
  // count and the average is at least 1.
  if (stats.augmentations > 0) {
    EXPECT_GE(stats.total_path_edges, stats.augmentations);
    EXPECT_GE(stats.avg_path_length(), 1.0);
  }
  // Step timers sum to no more than the total (within other).
  EXPECT_LE(stats.step_seconds.top_down + stats.step_seconds.bottom_up +
                stats.step_seconds.augment + stats.step_seconds.graft +
                stats.step_seconds.statistics,
            stats.seconds + 1e-6);
}

TEST(MsBfsGraft, FrontierTraceRecordsLevels) {
  GridParams params;
  params.width = 48;
  params.height = 48;
  params.diagonal_drop = 0.05;
  const BipartiteGraph g = generate_grid(params);
  Matching m = randomized_greedy(g, 1);
  RunConfig config;
  config.collect_frontier_trace = true;
  const RunStats stats = ms_bfs_graft(g, m, config);

  ASSERT_FALSE(stats.frontier_trace.empty());
  // Phases numbered from 1, contiguous; levels start at 0 per phase.
  std::set<std::int64_t> phases;
  for (const FrontierSample& sample : stats.frontier_trace) {
    EXPECT_GE(sample.phase, 1);
    EXPECT_LE(sample.phase, stats.phases);
    EXPECT_GE(sample.level, 0);
    EXPECT_GT(sample.frontier_size, 0);
    phases.insert(sample.phase);
  }
  // Every productive phase traversed at least one level.
  EXPECT_GE(static_cast<std::int64_t>(phases.size()), stats.phases - 1);
}

TEST(MsBfsGraft, TraceOffByDefault) {
  const BipartiteGraph g = figure2_graph();
  Matching m = figure2_initial();
  const RunStats stats = ms_bfs_graft(g, m);
  EXPECT_TRUE(stats.frontier_trace.empty());
}

TEST(MsBfsGraft, GraftingReducesEdgeTraversals) {
  // On a low-matching-number graph, grafting must traverse fewer edges
  // than rebuild-from-scratch MS-BFS (the paper's core claim).
  WebCrawlParams params;
  params.nx = params.ny = 20000;
  params.avg_degree = 8.0;
  params.seed = 4;
  const BipartiteGraph g = generate_webcrawl(params);

  RunConfig with;
  with.direction_optimizing = false;  // isolate the grafting effect
  with.tree_grafting = true;
  Matching m1 = randomized_greedy(g, 1);
  const RunStats graft = ms_bfs_graft(g, m1, with);

  RunConfig without = with;
  without.tree_grafting = false;
  Matching m2 = randomized_greedy(g, 1);
  const RunStats plain = ms_bfs_graft(g, m2, without);

  EXPECT_EQ(m1.cardinality(), m2.cardinality());
  EXPECT_LT(graft.edges_traversed, plain.edges_traversed);
}

TEST(MsBfsGraft, WorksFromEmptyMatching) {
  ChungLuParams params;
  params.nx = params.ny = 1000;
  const BipartiteGraph g = generate_chung_lu(params);
  Matching m(params.nx, params.ny);
  ms_bfs_graft(g, m);
  EXPECT_TRUE(is_maximum_matching(g, m));
}

TEST(MsBfsGraft, AlreadyMaximumIsOnePhaseNoop) {
  const BipartiteGraph g = figure2_graph();
  Matching m = figure2_initial();
  ms_bfs_graft(g, m);  // reach maximum
  const RunStats stats = ms_bfs_graft(g, m);  // run again
  EXPECT_EQ(stats.augmentations, 0);
  EXPECT_EQ(stats.phases, 1);
}

TEST(MsBfsGraft, EdgelessAndEmptyGraphs) {
  EdgeList list;
  list.nx = 8;
  list.ny = 8;
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  Matching m(8, 8);
  const RunStats stats = ms_bfs_graft(g, m);
  EXPECT_EQ(stats.final_cardinality, 0);

  EdgeList zero;
  const BipartiteGraph g0 = BipartiteGraph::from_edges(zero);
  Matching m0(0, 0);
  EXPECT_EQ(ms_bfs_graft(g0, m0).final_cardinality, 0);
}

TEST(MsBfsGraft, AlphaExtremesStillCorrect) {
  WebCrawlParams params;
  params.nx = params.ny = 2000;
  const BipartiteGraph g = generate_webcrawl(params);
  const std::int64_t expected = maximum_matching_cardinality(g);
  for (const double alpha : {1.0001, 1e9}) {
    RunConfig config;
    config.alpha = alpha;
    Matching m = randomized_greedy(g, 5);
    ms_bfs_graft(g, m, config);
    EXPECT_EQ(m.cardinality(), expected) << alpha;
  }
}

TEST(MsBfsGraft, RejectsNonPositiveAlpha) {
  const BipartiteGraph g = figure2_graph();
  Matching m = figure2_initial();
  RunConfig config;
  config.alpha = 0.0;
  EXPECT_THROW(ms_bfs_graft(g, m, config), std::invalid_argument);
  config.alpha = -3.0;
  EXPECT_THROW(ms_bfs_graft(g, m, config), std::invalid_argument);
}

TEST(MsBfsGraft, PhaseStatsRowsAreConsistent) {
  WebCrawlParams params;
  params.nx = params.ny = 4000;
  params.seed = 8;
  const BipartiteGraph g = generate_webcrawl(params);
  Matching m = randomized_greedy(g, 4);
  RunConfig config;
  config.collect_phase_stats = true;
  const RunStats stats = ms_bfs_graft(g, m, config);

  ASSERT_EQ(static_cast<std::int64_t>(stats.phase_stats.size()),
            stats.phases);
  std::int64_t total_edges = 0;
  std::int64_t total_paths = 0;
  for (std::size_t i = 0; i < stats.phase_stats.size(); ++i) {
    const PhaseStats& row = stats.phase_stats[i];
    EXPECT_EQ(row.phase, static_cast<std::int64_t>(i) + 1);
    EXPECT_GE(row.levels, 0);
    EXPECT_LE(row.bottom_up_levels, row.levels);
    EXPECT_GE(row.edges, 0);
    EXPECT_GE(row.seconds, 0.0);
    total_edges += row.edges;
    total_paths += row.augmentations;
  }
  EXPECT_EQ(total_edges, stats.edges_traversed);
  EXPECT_EQ(total_paths, stats.augmentations);
  // The final phase finds nothing (termination condition).
  EXPECT_EQ(stats.phase_stats.back().augmentations, 0);
  // Early path-rich phases rebuild; at least one later phase grafts on
  // this workload.
  bool any_grafted = false;
  for (const PhaseStats& row : stats.phase_stats) {
    any_grafted = any_grafted || row.grafted;
  }
  EXPECT_TRUE(any_grafted);
}

TEST(MsBfsGraft, PhaseStatsOffByDefault) {
  const BipartiteGraph g = figure2_graph();
  Matching m = figure2_initial();
  const RunStats stats = ms_bfs_graft(g, m);
  EXPECT_TRUE(stats.phase_stats.empty());
}

TEST(MsBfsGraft, InvariantAuditPassesAcrossConfigurations) {
  // The O(n+m) forest audit must stay silent for every configuration on
  // a workload that exercises grafting, rebuilds, and both directions,
  // at every width it asks for.
  const BipartiteGraph g = graph_for_width(4, [](int k) {
    WebCrawlParams params;
    params.nx = params.ny = 3000 * k;
    params.seed = 6;
    return generate_webcrawl(params);
  });
  for (const bool grafting : {false, true}) {
    for (const bool dirop : {false, true}) {
      for (const int threads : {1, 4}) {
        RunConfig config;
        config.check_invariants = true;
        config.tree_grafting = grafting;
        config.direction_optimizing = dirop;
        config.threads = threads;
        Matching m = randomized_greedy(g, 3);
        RunStats stats;
        EXPECT_NO_THROW(stats = ms_bfs_graft(g, m, config))
            << "graft=" << grafting << " dirop=" << dirop
            << " threads=" << threads;
        EXPECT_EQ(stats.threads_used, threads);
        EXPECT_TRUE(is_maximum_matching(g, m));
      }
    }
  }
}

TEST(MsBfsGraft, WideTeamsGraftAndRebuildUnderTheAudit) {
  // The pass-boundary bitmap maintenance (frontier publish, graft
  // frees, rebuild clears) runs on the calling thread at every width;
  // the audit at the end of each Step 1 checks the eligible-parent and
  // visited bits it leaves behind. The solve must take both the graft
  // and the rebuild branch at each width for that to cover both paths:
  // from the empty matching with alpha = 0.5, the early path-rich
  // phases of this scale-free graph rebuild and the later ones graft.
  // The graph is above edges_for_width(4), so every width is granted.
  ChungLuParams params;
  params.nx = params.ny = 8000;
  params.avg_degree = 4.0;
  params.max_degree = 200;
  const BipartiteGraph g = generate_chung_lu(params);
  ASSERT_GE(g.num_edges(), edges_for_width(4));
  const std::int64_t maximum = maximum_matching_cardinality(g);
  for (const int threads : {2, 3, 4}) {
    RunConfig config;
    config.threads = threads;
    config.alpha = 0.5;
    config.check_invariants = true;
    config.collect_phase_stats = true;
    Matching m(g.num_x(), g.num_y());
    RunStats stats;
    ASSERT_NO_THROW(stats = ms_bfs_graft(g, m, config))
        << "threads=" << threads;
    EXPECT_EQ(stats.threads_used, threads);
    EXPECT_EQ(m.cardinality(), maximum) << "threads=" << threads;
    EXPECT_TRUE(is_maximum_matching(g, m));
    // The last row is the terminating phase, which neither grafts nor
    // rebuilds; every earlier row took exactly one of the two.
    std::int64_t grafted = 0;
    std::int64_t rebuilt = 0;
    for (const PhaseStats& row : stats.phase_stats) {
      if (row.augmentations == 0) continue;
      (row.grafted ? grafted : rebuilt) += 1;
    }
    EXPECT_GT(grafted, 0) << "threads=" << threads;
    EXPECT_GT(rebuilt, 0) << "threads=" << threads;
  }
}

TEST(MsBfsGraft, InvariantAuditOnScientificClass) {
  GridParams params;
  params.width = 64;
  params.height = 64;
  params.diagonal_drop = 0.1;
  const BipartiteGraph g = generate_grid(params);
  RunConfig config;
  config.check_invariants = true;
  Matching m = randomized_greedy(g, 1);
  EXPECT_NO_THROW(ms_bfs_graft(g, m, config));
}

}  // namespace
}  // namespace graftmatch
