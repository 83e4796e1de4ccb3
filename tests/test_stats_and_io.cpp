// Tests for RunStats (formatting, derived metrics, path-length
// histograms, JSON robustness), BipartiteGraph::from_csr, and matching
// serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/baselines/pothen_fan.hpp"
#include "graftmatch/baselines/ss_bfs.hpp"
#include "graftmatch/baselines/ss_dfs.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/graph/matching_io.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/obs/trace.hpp"
#include "json_check.hpp"

namespace graftmatch {
namespace {

TEST(RunStats, DerivedMetrics) {
  RunStats stats;
  stats.algorithm = "test";
  stats.augmentations = 4;
  stats.total_path_edges = 20;
  stats.edges_traversed = 3'000'000;
  stats.seconds = 1.5;
  EXPECT_DOUBLE_EQ(stats.avg_path_length(), 5.0);
  EXPECT_DOUBLE_EQ(stats.mteps(), 2.0);

  RunStats empty;
  EXPECT_EQ(empty.avg_path_length(), 0.0);
  EXPECT_EQ(empty.mteps(), 0.0);
}

TEST(RunStats, StepSecondsTotal) {
  StepSeconds steps;
  steps.top_down = 1;
  steps.bottom_up = 2;
  steps.augment = 3;
  steps.graft = 4;
  steps.statistics = 5;
  steps.other = 6;
  EXPECT_DOUBLE_EQ(steps.total(), 21.0);
}

TEST(RunStats, FormatContainsKeyFields) {
  RunStats stats;
  stats.algorithm = "MS-BFS-Graft";
  stats.final_cardinality = 42;
  stats.phases = 3;
  const std::string text = format_run_stats(stats);
  EXPECT_NE(text.find("MS-BFS-Graft"), std::string::npos);
  EXPECT_NE(text.find("|M|=42"), std::string::npos);
  EXPECT_NE(text.find("phases=3"), std::string::npos);
}

TEST(RunStatsJson, RealRunIsStrictlyValid) {
  ChungLuParams params;
  params.nx = params.ny = 1000;
  params.avg_degree = 5.0;
  const BipartiteGraph g = generate_chung_lu(params);
  Matching m = randomized_greedy(g, 1);
  RunConfig config;
  config.collect_phase_stats = true;
  config.collect_frontier_trace = true;
  config.collect_path_histogram = true;
  const RunStats stats = ms_bfs_graft(g, m, config);
  std::string error;
  EXPECT_TRUE(testing::json_valid(run_stats_json(stats), &error)) << error;
}

// A reduced run must emit the `reduce` block next to `obs`, both
// strictly valid; an unreduced run must emit neither key.
TEST(RunStatsJson, ReduceBlockIsStrictlyValid) {
  ChungLuParams params;
  params.nx = params.ny = 800;
  params.avg_degree = 2.0;  // sparse, so pendant reductions actually fire
  params.seed = 9;
  const BipartiteGraph g = generate_chung_lu(params);

  obs::arm();
  Matching m;
  RunConfig config;
  config.reduce = ReduceMode::kDegree1;
  config.collect_path_histogram = true;
  const RunStats stats = engine::run("graft", "greedy", g, m, config);
  obs::disarm();

  ASSERT_TRUE(stats.reduce.collected);
  ASSERT_TRUE(stats.obs.collected);
  EXPECT_GT(stats.reduce.forced_matches, 0);
  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"reduce\":{\"mode\":\"d1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"forced_matches\":"), std::string::npos);
  EXPECT_NE(json.find("\"reconstruct_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"obs\":{"), std::string::npos);

  // Non-finite timings inside the reduce block must stay valid JSON.
  RunStats degenerate = stats;
  degenerate.reduce.reduce_seconds = std::numeric_limits<double>::quiet_NaN();
  degenerate.reduce.compact_seconds = std::numeric_limits<double>::infinity();
  const std::string bad = run_stats_json(degenerate);
  EXPECT_TRUE(testing::json_valid(bad, &error)) << error << "\n" << bad;
  EXPECT_EQ(bad.find("nan"), std::string::npos);
  EXPECT_EQ(bad.find("inf"), std::string::npos);

  RunStats plain;
  const std::string without = run_stats_json(plain);
  EXPECT_TRUE(testing::json_valid(without, &error)) << error;
  EXPECT_EQ(without.find("\"reduce\""), std::string::npos);
}

// A churn run through the DynamicMatcher must emit the `dynamic` block
// strictly valid, with the non-finite-timing guard that every other
// block honors; plain stats must omit the key entirely.
TEST(RunStatsJson, DynamicBlockIsStrictlyValid) {
  ChungLuParams params;
  params.nx = params.ny = 300;
  params.avg_degree = 4.0;
  params.seed = 21;
  const BipartiteGraph g = generate_chung_lu(params);

  SessionContext session;
  dynamic::DynamicMatcher matcher(session, g);
  const std::vector<Edge> batch = {g.to_edges().edges[0],
                                   g.to_edges().edges[1]};
  matcher.remove_edges(batch);
  matcher.add_edges(batch);
  const RunStats stats = matcher.stats();
  ASSERT_TRUE(stats.dynamic.collected);
  EXPECT_EQ(stats.dynamic.batches, 2);
  EXPECT_EQ(stats.dynamic.edges_removed, 2);

  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"dynamic\":{\"batches\":2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reaugment_searches\":"), std::string::npos);
  EXPECT_NE(json.find("\"overlay_peak\":"), std::string::npos);

  // Non-finite timings inside the dynamic block must stay valid JSON.
  RunStats degenerate = stats;
  degenerate.dynamic.apply_seconds = std::numeric_limits<double>::quiet_NaN();
  degenerate.dynamic.reaugment_seconds =
      std::numeric_limits<double>::infinity();
  degenerate.dynamic.compact_seconds =
      -std::numeric_limits<double>::infinity();
  degenerate.dynamic.resolve_seconds =
      std::numeric_limits<double>::quiet_NaN();
  const std::string bad = run_stats_json(degenerate);
  EXPECT_TRUE(testing::json_valid(bad, &error)) << error << "\n" << bad;
  EXPECT_EQ(bad.find("nan"), std::string::npos);
  EXPECT_EQ(bad.find("inf"), std::string::npos);

  RunStats plain;
  const std::string without = run_stats_json(plain);
  EXPECT_TRUE(testing::json_valid(without, &error)) << error;
  EXPECT_EQ(without.find("\"dynamic\""), std::string::npos);
}

// A real MS-BFS-Graft run emits the `bookkeeping` block (workspace
// warmth, incremental-sweep counters); hand-built stats without it must
// omit the key entirely.
TEST(RunStatsJson, BookkeepingBlockIsStrictlyValid) {
  ChungLuParams params;
  params.nx = params.ny = 1200;
  params.avg_degree = 4.0;
  params.seed = 13;
  const BipartiteGraph g = generate_chung_lu(params);

  RunConfig config;
  RunStats stats;
  {
    Matching m(g.num_x(), g.num_y());
    stats = ms_bfs_graft(g, m, config);
  }
  ASSERT_TRUE(stats.bookkeeping.collected);
  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"bookkeeping\":{\"workspace_warm\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"classified_y\":"), std::string::npos);
  EXPECT_NE(json.find("\"epoch_bumps\":"), std::string::npos);
  // The incremental classification sweeps visit forest members only;
  // their volume is bounded by runs over the whole vertex range.
  EXPECT_GE(stats.bookkeeping.classified_y, 0);
  EXPECT_GE(stats.bookkeeping.counted_x, 0);

  // Same thread, same dimensions: the thread_local workspace is warm.
  {
    Matching m(g.num_x(), g.num_y());
    const RunStats again = ms_bfs_graft(g, m, config);
    EXPECT_TRUE(again.bookkeeping.workspace_warm);
    const std::string warm_json = run_stats_json(again);
    EXPECT_TRUE(testing::json_valid(warm_json, &error)) << error;
    EXPECT_NE(warm_json.find("\"workspace_warm\":true"), std::string::npos)
        << warm_json;
  }

  RunStats plain;
  const std::string without = run_stats_json(plain);
  EXPECT_TRUE(testing::json_valid(without, &error)) << error;
  EXPECT_EQ(without.find("\"bookkeeping\""), std::string::npos);
}

// JSON has no NaN/Inf literals; non-finite doubles (a 0-second run, a
// degenerate division) must never corrupt the document.
TEST(RunStatsJson, NonFiniteFieldsStayValid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  RunStats stats;
  stats.algorithm = "degenerate";
  stats.seconds = nan;
  stats.step_seconds.top_down = inf;
  stats.step_seconds.bottom_up = -inf;
  stats.step_seconds.augment = nan;
  stats.step_seconds.graft = inf;
  stats.step_seconds.statistics = nan;
  stats.step_seconds.other = inf;
  PhaseStats phase;
  phase.phase = 1;
  phase.seconds = nan;
  stats.phase_stats.push_back(phase);
  // edges > 0 with seconds = NaN makes mteps() NaN too.
  stats.edges_traversed = 100;
  stats.augmentations = 1;
  stats.total_path_edges = 3;

  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

// Algorithm names flow into JSON verbatim; quotes, backslashes, and
// control characters must come out escaped.
TEST(RunStatsJson, EscapesAlgorithmString) {
  RunStats stats;
  stats.algorithm = "evil\"name\\with\nnewline\tand\x01" "control";
  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline\\tand\\u0001control"),
            std::string::npos);
}

// Every path-collecting algorithm: histogram totals must reconcile with
// augmentations/total_path_edges, and lengths must be odd.
TEST(PathHistogram, ConsistentAcrossAlgorithms) {
  ChungLuParams params;
  params.nx = params.ny = 2000;
  params.avg_degree = 6.0;
  params.seed = 4;
  const BipartiteGraph g = generate_chung_lu(params);
  const Matching initial = randomized_greedy(g, 2);

  const auto check = [&](auto&& algorithm, const char* name) {
    RunConfig config;
    config.collect_path_histogram = true;
    Matching m = initial;
    const RunStats stats = algorithm(g, m, config);
    std::int64_t count = 0;
    std::int64_t edges = 0;
    for (const auto& [length, paths] : stats.path_length_histogram) {
      EXPECT_EQ(length % 2, 1) << name << ": even path length " << length;
      EXPECT_GT(paths, 0) << name;
      count += paths;
      edges += length * paths;
    }
    EXPECT_EQ(count, stats.augmentations) << name;
    EXPECT_EQ(edges, stats.total_path_edges) << name;
    EXPECT_GT(count, 0) << name << ": workload left no paths";
  };

  check([](const auto& g2, auto& m, const RunConfig& c) {
    return ms_bfs_graft(g2, m, c);
  }, "graft");
  check([](const auto& g2, auto& m, const RunConfig& c) {
    return pothen_fan(g2, m, c);
  }, "pf");
  check([](const auto& g2, auto& m, const RunConfig& c) {
    return hopcroft_karp(g2, m, c);
  }, "hk");
  check([](const auto& g2, auto& m, const RunConfig& c) {
    return ss_bfs(g2, m, c);
  }, "ssbfs");
  check([](const auto& g2, auto& m, const RunConfig& c) {
    return ss_dfs(g2, m, c);
  }, "ssdfs");
}

TEST(PathHistogram, OffByDefault) {
  ChungLuParams params;
  params.nx = params.ny = 500;
  const BipartiteGraph g = generate_chung_lu(params);
  Matching m = randomized_greedy(g, 1);
  const RunStats stats = ms_bfs_graft(g, m);
  EXPECT_TRUE(stats.path_length_histogram.empty());
}

TEST(FromCsr, BuildsEquivalentGraph) {
  // x0 ~ {y1, y0 (dup, unsorted)}, x1 ~ {}, x2 ~ {y2}
  const std::vector<eid_t> offsets{0, 3, 3, 4};
  const std::vector<vid_t> neighbors{1, 0, 0, 2};
  const BipartiteGraph g = BipartiteGraph::from_csr(offsets, neighbors, 3);
  EXPECT_EQ(g.num_x(), 3);
  EXPECT_EQ(g.num_y(), 3);
  EXPECT_EQ(g.num_edges(), 3);  // duplicate merged
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 2));
  EXPECT_EQ(g.degree_x(1), 0);
}

TEST(FromCsr, ValidatesInput) {
  const std::vector<eid_t> empty;
  const std::vector<vid_t> none;
  EXPECT_THROW(BipartiteGraph::from_csr(empty, none, 1),
               std::invalid_argument);

  const std::vector<eid_t> bad_frame{0, 2};
  const std::vector<vid_t> one{0};
  EXPECT_THROW(BipartiteGraph::from_csr(bad_frame, one, 1),
               std::invalid_argument);

  const std::vector<eid_t> decreasing{0, 1, 0, 1};
  const std::vector<vid_t> n1{0};
  EXPECT_THROW(BipartiteGraph::from_csr(decreasing, n1, 1),
               std::invalid_argument);

  const std::vector<eid_t> offsets{0, 1};
  const std::vector<vid_t> out_of_range{5};
  EXPECT_THROW(BipartiteGraph::from_csr(offsets, out_of_range, 2),
               std::invalid_argument);
}

TEST(MatchingIo, RoundTrip) {
  Matching m(5, 7);
  m.match(0, 6);
  m.match(3, 2);
  m.match(4, 0);

  std::ostringstream out;
  write_matching(out, m);
  std::istringstream in(out.str());
  const Matching loaded = read_matching(in);
  EXPECT_EQ(loaded, m);
  EXPECT_EQ(loaded.num_x(), 5);
  EXPECT_EQ(loaded.num_y(), 7);
}

TEST(MatchingIo, EmptyMatchingRoundTrip) {
  const Matching m(3, 3);
  std::ostringstream out;
  write_matching(out, m);
  std::istringstream in(out.str());
  EXPECT_EQ(read_matching(in), m);
}

TEST(MatchingIo, RejectsCorruptInput) {
  const auto expect_fail = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(read_matching(in), std::runtime_error) << text;
  };
  expect_fail("not-a-matching 1\n1 1 0\n");
  expect_fail("graftmatch-matching 2\n1 1 0\n");
  expect_fail("graftmatch-matching 1\n-1 1 0\n");
  expect_fail("graftmatch-matching 1\n2 2 1\n");          // truncated
  expect_fail("graftmatch-matching 1\n2 2 1\n5 0\n");     // out of range
  expect_fail("graftmatch-matching 1\n2 2 2\n0 0\n1 0\n");  // dup endpoint
}

TEST(MatchingIo, FileRoundTrip) {
  Matching m(4, 4);
  m.match(1, 3);
  const std::string path = ::testing::TempDir() + "/graftmatch_matching.txt";
  write_matching_file(path, m);
  EXPECT_EQ(read_matching_file(path), m);
  EXPECT_THROW(read_matching_file("/nonexistent/m.txt"), std::runtime_error);
}

}  // namespace
}  // namespace graftmatch
