// Tests for RunStats (formatting, derived metrics, path-length
// histograms, the JSON counter schema), BipartiteGraph::from_csr, and
// matching serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/baselines/pothen_fan.hpp"
#include "graftmatch/baselines/ss_bfs.hpp"
#include "graftmatch/baselines/ss_dfs.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
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

// ---- The counter schema: one test over every for_each_field list.

template <class T, class = void>
constexpr bool kHasCollected = false;
template <class T>
constexpr bool kHasCollected<T, std::void_t<decltype(T::collected)>> = true;

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Converts to any member type, so T{AnyField{}, ...} compiles for up to
/// exactly as many initializers as aggregate T has members.
struct AnyField {
  template <class T>
  operator T() const;
};

template <class T, class Indices, class = void>
constexpr bool kInitializable = false;
template <class T, std::size_t... I>
constexpr bool kInitializable<
    T, std::index_sequence<I...>,
    std::void_t<decltype(T{(void(I), AnyField{})...})>> = true;

template <class T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (kInitializable<T, std::make_index_sequence<N + 1>>) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

/// Keys with no member behind them, and blocks with a `collected` flag.
struct SchemaKeys {
  std::vector<std::string> derived;
  std::vector<std::string> optional;
};

/// Gives every field `block`'s list visits a distinct value (NaN or
/// +-Inf for each double) and sets every `collected` flag except the
/// one of the block named `omit`. Returns the JSON object
/// run_stats_json must write for `block`, built from the lists alone,
/// and checks that each list names each data member and key once.
template <class Block>
std::string fill(Block& block, const std::string& omit, std::int64_t& next,
                 SchemaKeys& schema) {
  const double non_finite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  std::set<const void*> members;
  std::set<std::string> keys;
  std::string json;
  Block::for_each_field(block, [&](const char* key, auto&& field) {
    using F = std::decay_t<decltype(field)>;
    EXPECT_TRUE(keys.insert(key).second) << "key listed twice: " << key;
    std::ostringstream value;
    value << std::setprecision(17);
    if constexpr (!std::is_lvalue_reference_v<decltype(field)>) {
      schema.derived.push_back(key);
      value << (std::isfinite(field) ? field : 0.0);
    } else {
      members.insert(&field);
      if constexpr (std::is_same_v<F, bool>) {
        field = true;
        value << "true";
      } else if constexpr (std::is_integral_v<F>) {
        field = static_cast<F>(++next);
        value << field;
      } else if constexpr (std::is_floating_point_v<F>) {
        field = non_finite[++next % 3];
        value << 0;
      } else if constexpr (std::is_enum_v<F>) {
        field = static_cast<F>(1);
        value << '"' << to_string(field) << '"';
      } else if constexpr (std::is_same_v<F, std::string>) {
        field = "algo";
        value << "\"algo\"";
      } else if constexpr (std::is_same_v<F, std::map<std::int64_t,
                                                      std::int64_t>>) {
        const std::int64_t length = ++next;
        field[length] = ++next;
        value << "[[" << length << ',' << field[length] << "]]";
      } else if constexpr (kIsVector<F>) {
        value << '[' << fill(field.emplace_back(), omit, next, schema) << ']';
      } else {
        value << fill(field, omit, next, schema);
        if constexpr (kHasCollected<F>) {
          schema.optional.push_back(key);
          field.collected = key != omit;
          if (!field.collected) return;
        }
      }
    }
    json += (json.empty() ? "\"" : ",\"") + std::string(key) +
            "\":" + value.str();
  });
  EXPECT_EQ(members.size() + (kHasCollected<Block> ? 1 : 0),
            member_count<Block>())
      << json << ": the list misses or repeats a member";
  return '{' + json + '}';
}

// Every key of every list comes out once, in list order, inside its
// block and with its own field's value; non-finite doubles come out as
// 0; a block whose `collected` is false is left out whole.
TEST(RunStatsJson, SchemaWritesEveryKeyOnceInItsBlock) {
  RunStats stats;
  std::int64_t next = 0;
  SchemaKeys schema;
  const std::string expected = fill(stats, "", next, schema);
  EXPECT_EQ(schema.derived,
            (std::vector<std::string>{"avg_path_length", "mteps"}));
  EXPECT_FALSE(schema.optional.empty());

  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json, expected);

  for (const std::string& block : schema.optional) {
    RunStats without;
    std::int64_t again = 0;
    SchemaKeys unused;
    const std::string kept = fill(without, block, again, unused);
    EXPECT_EQ(kept.find('"' + block + "\":"), std::string::npos);
    EXPECT_EQ(run_stats_json(without), kept) << block;
  }
}

// A d1 reduction reports its counters (average degree 2 leaves
// pendants to force); engine::run's reduce path owns the trace run.
TEST(RunStats, ReducedRunCountsForcedMatches) {
  ChungLuParams params;
  params.nx = params.ny = 800;
  params.avg_degree = 2.0;
  params.seed = 9;
  const BipartiteGraph g = generate_chung_lu(params);

  obs::arm();
  Matching m;
  RunConfig config;
  config.reduce = ReduceMode::kDegree1;
  const RunStats stats = engine::run("graft", "greedy", g, m, config);
  obs::disarm();
  ASSERT_TRUE(stats.reduce.collected);
  EXPECT_EQ(stats.reduce.mode, ReduceMode::kDegree1);
  EXPECT_GT(stats.reduce.forced_matches, 0);
  EXPECT_EQ(stats.obs.collected, obs::compiled());

  Matching unreduced;
  EXPECT_FALSE(engine::run("graft", "greedy", g, unreduced, RunConfig{})
                   .reduce.collected);
}

// MS-BFS-Graft fills the bookkeeping block; a second run of the same
// dimensions gets a warm workspace back from the session's
// WorkspacePool.
TEST(RunStats, SecondSameSizeRunFindsTheWorkspaceWarm) {
  ChungLuParams params;
  params.nx = params.ny = 1200;
  params.avg_degree = 4.0;
  params.seed = 13;
  const BipartiteGraph g = generate_chung_lu(params);

  Matching first(g.num_x(), g.num_y());
  const RunStats stats = ms_bfs_graft(g, first);
  ASSERT_TRUE(stats.bookkeeping.collected);

  Matching second(g.num_x(), g.num_y());
  EXPECT_TRUE(ms_bfs_graft(g, second).bookkeeping.workspace_warm);
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
