// Unit tests for the engine's solver/initializer registry: enumeration,
// clear errors for unknown names, correctness of every registered entry
// on a known-maximum graph, and the width contract -- the solve_width()
// of RunConfig::threads and the graph must reach the OpenMP regions each
// solver and initializer opens (probed via last_team_width()).
#include <gtest/gtest.h>
#include <omp.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graftmatch/graftmatch.hpp"

namespace graftmatch {
namespace {

BipartiteGraph complete_bipartite(vid_t nx, vid_t ny) {
  EdgeList list;
  list.nx = nx;
  list.ny = ny;
  for (vid_t x = 0; x < nx; ++x) {
    for (vid_t y = 0; y < ny; ++y) list.edges.push_back({x, y});
  }
  return BipartiteGraph::from_edges(list);
}

TEST(Registry, EnumeratesSolversAndInitializers) {
  ASSERT_FALSE(engine::solver_registry().empty());
  ASSERT_FALSE(engine::initializer_registry().empty());

  std::set<std::string> solver_keys;
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    EXPECT_FALSE(solver.name.empty());
    EXPECT_FALSE(solver.display_name.empty());
    EXPECT_TRUE(solver.solve != nullptr) << solver.name;
    EXPECT_TRUE(solver_keys.insert(solver.name).second)
        << "duplicate solver key " << solver.name;
    EXPECT_EQ(&engine::find_solver(solver.name), &solver);
  }
  EXPECT_TRUE(solver_keys.count("graft"));
  EXPECT_TRUE(solver_keys.count("pf"));

  std::set<std::string> init_keys;
  for (const engine::InitializerInfo& init : engine::initializer_registry()) {
    EXPECT_TRUE(init.build != nullptr) << init.name;
    EXPECT_TRUE(init_keys.insert(init.name).second)
        << "duplicate initializer key " << init.name;
    EXPECT_EQ(&engine::find_initializer(init.name), &init);
  }
  EXPECT_TRUE(init_keys.count("ks"));
  EXPECT_TRUE(init_keys.count("none"));
}

TEST(Registry, UnknownSolverNameGivesClearError) {
  EXPECT_EQ(engine::find_solver_or_null("no-such-solver"), nullptr);
  try {
    engine::find_solver("no-such-solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    // The message must name the offender and list valid keys so a CLI
    // user can fix a typo without reading the source.
    EXPECT_NE(what.find("unknown solver"), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-solver"), std::string::npos) << what;
    EXPECT_NE(what.find("graft"), std::string::npos) << what;
  }
}

TEST(Registry, UnknownInitializerNameGivesClearError) {
  EXPECT_EQ(engine::find_initializer_or_null("bogus"), nullptr);
  try {
    engine::make_initial_matching("bogus", complete_bipartite(2, 2),
                                  RunConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown initializer"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("ks"), std::string::npos) << what;
  }
}

TEST(Registry, EverySolverReachesMaximumCardinality) {
  const BipartiteGraph g = complete_bipartite(6, 9);
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    Matching m(g.num_x(), g.num_y());
    RunConfig config;
    config.threads = 1;
    const RunStats stats = solver.run(g, m, config);
    EXPECT_TRUE(is_valid_matching(g, m)) << solver.name;
    EXPECT_EQ(m.cardinality(), 6) << solver.name;
    EXPECT_EQ(stats.final_cardinality, 6) << solver.name;
    EXPECT_EQ(stats.algorithm, solver.display_name) << solver.name;
    EXPECT_EQ(stats.threads_used, 1) << solver.name;
  }
}

TEST(Registry, EveryInitializerProducesValidMatching) {
  const BipartiteGraph g = complete_bipartite(8, 5);
  for (const engine::InitializerInfo& init : engine::initializer_registry()) {
    RunConfig config;
    config.threads = 1;
    config.seed = 42;
    const Matching m = engine::make_initial_matching(init.name, g, config);
    EXPECT_TRUE(is_valid_matching(g, m)) << init.name;
    if (init.name != "none") {
      // Every real initializer is maximal, and on a complete bipartite
      // graph maximal == maximum.
      EXPECT_EQ(m.cardinality(), 5) << init.name;
    }
  }
}

// Regression for RunConfig::threads (the knob used to be ignored by
// some baselines): pin one thread with an oversubscribed OpenMP default
// of 4, run each parallel entry, and assert the parallel regions it
// opened were exactly one thread wide, on a graph the width rule would
// run 4 wide (40,000 edges).
TEST(Registry, ThreadsPinnedToOneReachesEveryParallelRegion) {
  const BipartiteGraph g = complete_bipartite(200, 200);
  ThreadCountGuard ambient(4);  // default would be 4 without the pin
  ASSERT_EQ(omp_get_max_threads(), 4);

  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    if (!solver.parallel) continue;
    last_team_width().store(-1);
    Matching m(g.num_x(), g.num_y());
    RunConfig config;
    config.threads = 1;
    const RunStats stats = solver.run(g, m, config);
    EXPECT_EQ(last_team_width().load(), 1) << solver.name;
    EXPECT_EQ(stats.threads_used, 1) << solver.name;
    // The pin must not leak into the ambient default.
    EXPECT_EQ(omp_get_max_threads(), 4) << solver.name;
  }

  for (const engine::InitializerInfo& init : engine::initializer_registry()) {
    if (!init.parallel) continue;
    last_team_width().store(-1);
    RunConfig config;
    config.threads = 1;
    config.seed = 3;
    (void)engine::make_initial_matching(init.name, g, config);
    EXPECT_EQ(last_team_width().load(), 1) << init.name;
    EXPECT_EQ(omp_get_max_threads(), 4) << init.name;
  }
}

// The inverse direction: with no pin, parallel solvers and initializers
// pick up the runtime default and report it in threads_used -- on a
// graph above the grain (40,000 edges). Below it (256 edges) every
// region runs one wide.
TEST(Registry, DefaultThreadsFollowRuntime) {
  ThreadCountGuard ambient(3);
  for (const vid_t side : {200, 16}) {
    const BipartiteGraph g = complete_bipartite(side, side);
    const int width = side == 200 ? 3 : 1;
    for (const engine::SolverInfo& solver : engine::solver_registry()) {
      if (!solver.parallel) continue;
      last_team_width().store(-1);
      Matching m(g.num_x(), g.num_y());
      const RunStats stats = solver.run(g, m, RunConfig{});
      EXPECT_EQ(last_team_width().load(), width) << solver.name << side;
      EXPECT_EQ(stats.threads_used, width) << solver.name << side;
    }
    for (const engine::InitializerInfo& init :
         engine::initializer_registry()) {
      if (!init.parallel) continue;
      last_team_width().store(-1);
      (void)engine::make_initial_matching(init.name, g, RunConfig{});
      EXPECT_EQ(last_team_width().load(), width) << init.name << side;
    }
  }
}

}  // namespace
}  // namespace graftmatch
