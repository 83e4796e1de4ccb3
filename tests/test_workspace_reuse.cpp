// Workspace-reuse coverage (ctest labels: tier1, stress).
//
// One GraftWorkspace serves back-to-back solver runs -- on the same
// graph, on different graphs, and across dimension changes -- with
// check_invariants on, so any epoch/bitmap state bleeding between runs
// (a stale stamp surviving a bump, a bitmap bit from a previous graph,
// a candidate-pool entry outliving its run) trips the forest audit or
// the cardinality oracle. The stress label additionally runs the trials
// under the TSan tier's scheduling jitter and randomized thread counts.
#include <gtest/gtest.h>
#include <omp.h>

#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/gen/grid.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"

namespace graftmatch {
namespace {

std::int64_t reference_cardinality(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m.cardinality();
}

/// Run the workspace overload with the audit armed and verify the
/// result against an independent oracle.
void run_and_check(const BipartiteGraph& g, GraftWorkspace& workspace,
                   std::int64_t reference, const RunConfig& base,
                   bool expect_warm) {
  Matching m = karp_sipser(g, 7);
  RunConfig config = base;
  config.check_invariants = true;
  const RunStats stats = ms_bfs_graft(g, m, config, workspace);
  ASSERT_TRUE(stats.bookkeeping.collected);
  EXPECT_EQ(stats.bookkeeping.workspace_warm, expect_warm);
  EXPECT_TRUE(validate_matching(g, m).empty());
  EXPECT_EQ(m.cardinality(), reference);
  EXPECT_TRUE(is_maximum_matching(g, m));
}

TEST(WorkspaceReuse, SameGraphBackToBackRunsAreWarm) {
  ChungLuParams params;
  params.nx = params.ny = 3000;
  params.avg_degree = 5.0;
  params.seed = 11;
  const BipartiteGraph g = generate_chung_lu(params);
  const std::int64_t reference = reference_cardinality(g);

  GraftWorkspace workspace;
  for (int run = 0; run < 4; ++run) {
    run_and_check(g, workspace, reference, RunConfig{},
                  /*expect_warm=*/run > 0);
  }
  EXPECT_EQ(workspace.prepared_runs, 4);
}

TEST(WorkspaceReuse, ConfigurationMatrixSharesOneWorkspace) {
  // Every accelerator combination reuses the same warm arrays; the
  // config governs which bookkeeping paths run (pool builds, bitmap
  // maintenance), so cycling configs is what exercises cross-run
  // staleness between DIFFERENT code paths.
  WebCrawlParams params;
  params.nx = params.ny = 2000;
  params.seed = 5;
  const BipartiteGraph g = generate_webcrawl(params);
  const std::int64_t reference = reference_cardinality(g);

  GraftWorkspace workspace;
  bool first = true;
  for (int round = 0; round < 2; ++round) {
    for (const bool dir_opt : {false, true}) {
      for (const bool graft : {false, true}) {
        RunConfig config;
        config.direction_optimizing = dir_opt;
        config.tree_grafting = graft;
        run_and_check(g, workspace, reference, config,
                      /*expect_warm=*/!first);
        first = false;
      }
    }
  }
}

TEST(WorkspaceReuse, DifferentGraphsAlternateThroughOneWorkspace) {
  ChungLuParams cl;
  cl.nx = cl.ny = 2500;
  cl.avg_degree = 4.0;
  cl.seed = 3;
  const BipartiteGraph a = generate_chung_lu(cl);

  GridParams grid;
  grid.width = 40;
  grid.height = 50;
  const BipartiteGraph b = generate_grid(grid);

  const std::int64_t ref_a = reference_cardinality(a);
  const std::int64_t ref_b = reference_cardinality(b);

  GraftWorkspace workspace;
  for (int round = 0; round < 3; ++round) {
    // Dimensions change on every switch, so every prepare is cold; the
    // point is that values written for graph A never leak into B's run.
    run_and_check(a, workspace, ref_a, RunConfig{}, /*expect_warm=*/false);
    run_and_check(b, workspace, ref_b, RunConfig{}, /*expect_warm=*/false);
  }
}

TEST(WorkspaceReuse, ShrinkThenRegrowKeepsRunsIndependent) {
  // Shrinking keeps the larger allocation (capacity is sticky); the
  // logical range must still behave as freshly reset. Regrowing to the
  // original size must not resurrect values from the first run.
  ErdosRenyiParams big;
  big.nx = big.ny = 4000;
  big.edges = 16000;
  big.seed = 21;
  const BipartiteGraph large = generate_erdos_renyi(big);

  ErdosRenyiParams tiny;
  tiny.nx = tiny.ny = 300;
  tiny.edges = 1200;
  tiny.seed = 22;
  const BipartiteGraph small = generate_erdos_renyi(tiny);

  const std::int64_t ref_large = reference_cardinality(large);
  const std::int64_t ref_small = reference_cardinality(small);

  GraftWorkspace workspace;
  run_and_check(large, workspace, ref_large, RunConfig{}, false);
  run_and_check(small, workspace, ref_small, RunConfig{}, false);
  run_and_check(large, workspace, ref_large, RunConfig{}, false);
  // Same dimensions as the previous run: warm again.
  run_and_check(large, workspace, ref_large, RunConfig{}, true);
}

TEST(WorkspaceReuse, ThreadLocalOverloadStaysCorrectAcrossCalls) {
  // The 3-argument overload leases a workspace from the ambient
  // session's WorkspacePool and hands it back after the run; repeated
  // calls from one thread on mixed graphs are the bench min-of-runs
  // and diff-roster pattern.
  ChungLuParams cl;
  cl.nx = cl.ny = 1500;
  cl.avg_degree = 6.0;
  cl.seed = 17;
  const BipartiteGraph a = generate_chung_lu(cl);
  cl.seed = 18;
  const BipartiteGraph b = generate_chung_lu(cl);  // same dims: warm path

  const std::int64_t ref_a = reference_cardinality(a);
  const std::int64_t ref_b = reference_cardinality(b);

  for (int round = 0; round < 3; ++round) {
    for (const bool dir_opt : {false, true}) {
      Matching ma = karp_sipser(a, 7);
      Matching mb = karp_sipser(b, 7);
      RunConfig config;
      config.direction_optimizing = dir_opt;
      config.check_invariants = true;
      ms_bfs_graft(a, ma, config);
      ms_bfs_graft(b, mb, config);
      EXPECT_EQ(ma.cardinality(), ref_a);
      EXPECT_EQ(mb.cardinality(), ref_b);
    }
  }
}

TEST(WorkspaceReuse, RandomizedTrialsUnderScheduleJitter) {
  // Stress-tier workhorse: random graphs, random thread counts, one
  // workspace throughout. Seeds derive from a fixed master via
  // splitmix64 and are printed on failure for replay.
  constexpr std::uint64_t kMasterSeed = 0xA11C0DEULL;
  std::uint64_t stream = kMasterSeed;
  GraftWorkspace workspace;
  const int hw = omp_get_num_procs();

  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    ChungLuParams params;
    params.nx = static_cast<vid_t>(500 + rng.below(2000));
    params.ny = static_cast<vid_t>(500 + rng.below(2000));
    params.avg_degree = 3.0 + static_cast<double>(rng.below(4));
    params.seed = seed;
    const BipartiteGraph g = generate_chung_lu(params);
    const std::int64_t reference = reference_cardinality(g);

    Matching m = karp_sipser(g, seed);
    RunConfig config;
    config.threads =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(2 * hw)));
    config.check_invariants = true;
    ms_bfs_graft(g, m, config, workspace);
    EXPECT_TRUE(validate_matching(g, m).empty()) << "seed " << seed;
    EXPECT_EQ(m.cardinality(), reference) << "seed " << seed;
  }
}

}  // namespace
}  // namespace graftmatch
