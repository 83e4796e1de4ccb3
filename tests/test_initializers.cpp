// Tests for the maximal-matching initializers: Karp-Sipser (serial and
// parallel), the greedy variants, and the single-pass streaming
// matcher.
#include <gtest/gtest.h>

#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/gen/grid.hpp"
#include "graftmatch/gen/rmat.hpp"
#include "graftmatch/gen/sbm.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/init/parallel_karp_sipser.hpp"
#include "graftmatch/init/streaming_ks.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/validate.hpp"
#include "test_widths.hpp"

namespace graftmatch {
namespace {

BipartiteGraph path_graph(vid_t k) {
  // x0 - y0 - x1 - y1 - ... (a path with 2k vertices): the degree-1
  // rule alone solves it optimally.
  EdgeList list;
  list.nx = k;
  list.ny = k;
  for (vid_t i = 0; i < k; ++i) {
    list.edges.push_back({i, i});
    if (i + 1 < k) list.edges.push_back({i + 1, i});
  }
  return BipartiteGraph::from_edges(list);
}

BipartiteGraph star_graph(vid_t leaves) {
  // One X hub connected to `leaves` Y vertices: max matching is 1.
  EdgeList list;
  list.nx = 1;
  list.ny = leaves;
  for (vid_t y = 0; y < leaves; ++y) list.edges.push_back({0, y});
  return BipartiteGraph::from_edges(list);
}

TEST(KarpSipser, OptimalOnPath) {
  const BipartiteGraph g = path_graph(50);
  KarpSipserStats stats;
  const Matching m = karp_sipser(g, 1, &stats);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(m.cardinality(), 50);  // perfect via the diagonal
  EXPECT_GT(stats.degree_one_matches, 0);
}

TEST(KarpSipser, StarUsesDegreeOneRule) {
  const BipartiteGraph g = star_graph(10);
  KarpSipserStats stats;
  const Matching m = karp_sipser(g, 1, &stats);
  EXPECT_EQ(m.cardinality(), 1);
  // All ten leaves are degree-1; the safe rule fires first.
  EXPECT_EQ(stats.degree_one_matches + stats.random_matches, 1);
}

TEST(KarpSipser, MaximalOnRandomGraphs) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ErdosRenyiParams params;
    params.nx = 600;
    params.ny = 500;
    params.edges = 2500;
    params.seed = seed;
    const BipartiteGraph g = generate_erdos_renyi(params);
    const Matching m = karp_sipser(g, seed);
    EXPECT_TRUE(is_valid_matching(g, m));
    EXPECT_TRUE(is_maximal_matching(g, m));
  }
}

TEST(KarpSipser, DeterministicGivenSeed) {
  ErdosRenyiParams params;
  params.nx = params.ny = 300;
  params.edges = 1200;
  const BipartiteGraph g = generate_erdos_renyi(params);
  EXPECT_EQ(karp_sipser(g, 7), karp_sipser(g, 7));
}

TEST(KarpSipser, NearOptimalOnGrid) {
  GridParams params;
  params.width = 32;
  params.height = 32;
  const BipartiteGraph g = generate_grid(params);
  const Matching m = karp_sipser(g);
  // KS should recover at least 95% of the (perfect) maximum.
  EXPECT_GT(m.cardinality(), (1024 * 95) / 100);
}

TEST(KarpSipser, EmptyGraph) {
  EdgeList list;
  list.nx = 5;
  list.ny = 5;
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  EXPECT_EQ(karp_sipser(g).cardinality(), 0);
}

TEST(KarpSipserRule1, MaximalValidAndBetween) {
  // KSR1's quality sits between plain greedy and full Karp-Sipser on
  // graphs with a meaningful degree-1 periphery.
  WebCrawlParams params;
  params.nx = params.ny = 3000;
  params.seed = 5;
  const BipartiteGraph g = generate_webcrawl(params);
  KarpSipserStats stats;
  const Matching m = karp_sipser_rule1(g, &stats);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximal_matching(g, m));
  EXPECT_GT(stats.degree_one_matches, 0);
  const Matching full = karp_sipser(g);
  EXPECT_LE(m.cardinality(), full.cardinality());
  EXPECT_GE(2 * m.cardinality(), full.cardinality());
}

TEST(KarpSipserRule1, OptimalOnPath) {
  const BipartiteGraph g = path_graph(30);
  EXPECT_EQ(karp_sipser_rule1(g).cardinality(), 30);
}

TEST(KarpSipserRule1, Deterministic) {
  ErdosRenyiParams params;
  params.nx = params.ny = 400;
  params.edges = 1600;
  const BipartiteGraph g = generate_erdos_renyi(params);
  EXPECT_EQ(karp_sipser_rule1(g), karp_sipser_rule1(g));
}

TEST(Greedy, MaximalAndValid) {
  WebCrawlParams params;
  params.nx = params.ny = 2000;
  const BipartiteGraph g = generate_webcrawl(params);
  const Matching m = greedy_maximal(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(Greedy, AtLeastHalfOfMaximum) {
  ErdosRenyiParams params;
  params.nx = params.ny = 800;
  params.edges = 3000;
  const BipartiteGraph g = generate_erdos_renyi(params);
  const Matching m = greedy_maximal(g);
  EXPECT_GE(2 * m.cardinality(), maximum_matching_cardinality(g));
}

TEST(RandomizedGreedy, MaximalValidDeterministic) {
  ErdosRenyiParams params;
  params.nx = params.ny = 500;
  params.edges = 2000;
  const BipartiteGraph g = generate_erdos_renyi(params);
  const Matching a = randomized_greedy(g, 3);
  const Matching b = randomized_greedy(g, 3);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(is_valid_matching(g, a));
  EXPECT_TRUE(is_maximal_matching(g, a));
  // A different seed gives a different maximal matching (overwhelmingly).
  const Matching c = randomized_greedy(g, 4);
  EXPECT_NE(a, c);
}

// randomized_greedy as a plain loop, without the software prefetching
// the library version adds: the reference its output must equal.
Matching randomized_greedy_reference(const BipartiteGraph& g,
                                     std::uint64_t seed) {
  Matching matching(g.num_x(), g.num_y());
  Xoshiro256 rng(seed);
  std::vector<vid_t> order(static_cast<std::size_t>(g.num_x()));
  for (vid_t x = 0; x < g.num_x(); ++x) {
    order[static_cast<std::size_t>(x)] = x;
  }
  for (vid_t i = g.num_x() - 1; i > 0; --i) {
    const auto j =
        static_cast<vid_t>(rng.below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  for (const vid_t x : order) {
    const auto adj = g.neighbors_of_x(x);
    if (adj.empty()) continue;
    const auto start = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(adj.size())));
    for (std::size_t k = 0; k < adj.size(); ++k) {
      const vid_t y = adj[(start + k) % adj.size()];
      if (!matching.is_matched_y(y)) {
        matching.match(x, y);
        break;
      }
    }
  }
  return matching;
}

TEST(RandomizedGreedy, PrefetchingLoopMatchesPlainLoop) {
  std::vector<BipartiteGraph> corpus;
  {
    ChungLuParams p;
    p.nx = p.ny = 3000;
    p.avg_degree = 6.0;
    p.max_degree = 300;
    corpus.push_back(generate_chung_lu(p));
  }
  {
    RmatParams p;
    p.scale = 11;
    p.edge_factor = 8;
    corpus.push_back(generate_rmat(p));
  }
  {
    GridParams p;
    p.width = 40;
    p.height = 40;
    p.diagonal_drop = 0.2;
    corpus.push_back(generate_grid(p));
  }
  {
    // Isolated X vertices: empty adjacencies draw no probe start.
    ErdosRenyiParams p;
    p.nx = 2000;
    p.ny = 1500;
    p.edges = 2500;
    corpus.push_back(generate_erdos_renyi(p));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (const std::uint64_t seed : {1u, 2u, 7u, 42u}) {
      EXPECT_EQ(randomized_greedy(corpus[i], seed),
                randomized_greedy_reference(corpus[i], seed))
          << "graph " << i << " seed " << seed;
    }
  }
}

TEST(IsMaximal, DetectsNonMaximal) {
  const BipartiteGraph g = path_graph(3);
  Matching empty(g.num_x(), g.num_y());
  EXPECT_FALSE(is_maximal_matching(g, empty));
}

// Each width on a graph that grants it, and the same widths on a graph
// below the grain (6,000 edges), which runs one wide.
TEST(ParallelKarpSipser, MaximalValidAcrossThreadCounts) {
  const auto er = [](int k) {
    ErdosRenyiParams params;
    params.nx = 1500 * k;
    params.ny = 1200 * k;
    params.edges = 6000 * k;
    return generate_erdos_renyi(params);
  };
  const BipartiteGraph small = er(1);
  const BipartiteGraph wide = graph_for_width(4, er);
  for (int threads : {1, 2, 4}) {
    for (const BipartiteGraph* g : {&small, &wide}) {
      last_team_width().store(-1);
      const Matching m = parallel_karp_sipser(*g, 1, threads);
      EXPECT_EQ(last_team_width().load(), g == &wide ? threads : 1)
          << threads;
      EXPECT_TRUE(is_valid_matching(*g, m)) << threads;
      EXPECT_TRUE(is_maximal_matching(*g, m)) << threads;
    }
  }
}

TEST(ParallelKarpSipser, QualityComparableToSerial) {
  GridParams params;
  params.width = 48;
  params.height = 48;
  const BipartiteGraph g = generate_grid(params);
  const auto serial = karp_sipser(g).cardinality();
  const auto parallel = parallel_karp_sipser(g, 1, 4).cardinality();
  // Both are maximal, so both are >= max/2; additionally the parallel
  // variant should stay within 10% of the serial one on a grid.
  EXPECT_GT(parallel, (serial * 9) / 10);
}

TEST(ParallelKarpSipser, HandlesIsolatedVertices) {
  EdgeList list;
  list.nx = 10;
  list.ny = 10;
  list.edges = {{0, 0}, {9, 9}};
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  const Matching m = parallel_karp_sipser(g, 1, 2);
  EXPECT_EQ(m.cardinality(), 2);
}

TEST(StreamingMatcher, SinglePassRuleAndUntrustedInput) {
  StreamingMatcher matcher(2, 2);
  EXPECT_TRUE(matcher.accept(0, 0));   // both free -> matched
  EXPECT_FALSE(matcher.accept(0, 1));  // x0 taken -> dropped
  EXPECT_FALSE(matcher.accept(1, 0));  // y0 taken -> dropped
  EXPECT_TRUE(matcher.accept(1, 1));
  EXPECT_EQ(matcher.cardinality(), 2);
  // Out-of-range endpoints are ignored, not UB: streams are untrusted.
  EXPECT_FALSE(matcher.accept(-1, 0));
  EXPECT_FALSE(matcher.accept(0, 99));
  const Matching m = matcher.take();
  EXPECT_EQ(m.cardinality(), 2);
}

TEST(StreamingMaximal, MaximalOverTheStreamedEdgeList) {
  ErdosRenyiParams params;
  params.nx = 500;
  params.ny = 450;
  params.edges = 2200;
  const BipartiteGraph g = generate_erdos_renyi(params);
  const Matching m = streaming_maximal(g.to_edges());
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(StreamingKarpSipser, MaximalOnEveryGenerator) {
  std::vector<BipartiteGraph> corpus;
  {
    ErdosRenyiParams p;
    p.nx = 600;
    p.ny = 500;
    p.edges = 2500;
    corpus.push_back(generate_erdos_renyi(p));
  }
  {
    GridParams p;
    p.width = 24;
    p.height = 24;
    p.diagonal_drop = 0.2;
    corpus.push_back(generate_grid(p));
  }
  {
    WebCrawlParams p;
    p.nx = p.ny = 800;
    p.avg_degree = 4.0;
    corpus.push_back(generate_webcrawl(p));
  }
  {
    ChungLuParams p;
    p.nx = p.ny = 600;
    p.avg_degree = 5.0;
    p.max_degree = 64;
    corpus.push_back(generate_chung_lu(p));
  }
  {
    SbmParams p;
    p.rows_per_block = 80;
    p.cols_per_block = 70;
    p.blocks = 5;
    corpus.push_back(generate_sbm(p));
  }
  {
    RmatParams p;
    p.scale = 9;
    p.edge_factor = 5.0;
    corpus.push_back(generate_rmat(p));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Matching m = streaming_karp_sipser(corpus[i], 3);
    EXPECT_TRUE(is_valid_matching(corpus[i], m)) << "graph " << i;
    EXPECT_TRUE(is_maximal_matching(corpus[i], m)) << "graph " << i;
  }
}

TEST(StreamingKarpSipser, DeterministicGivenSeedAndSeedSensitive) {
  ErdosRenyiParams params;
  params.nx = params.ny = 400;
  params.edges = 1800;
  const BipartiteGraph g = generate_erdos_renyi(params);
  EXPECT_EQ(streaming_karp_sipser(g, 9), streaming_karp_sipser(g, 9));
  EXPECT_NE(streaming_karp_sipser(g, 9), streaming_karp_sipser(g, 10));
}

TEST(StreamingKarpSipser, PendantRowsStreamFirst) {
  // Star + pendant: x0 sees every y; x1..x10 each see exactly one y.
  // Pendant-first arrival must give all ten pendants their unique
  // neighbor, leaving a free column for the hub: cardinality 11.
  // Hub-first arrival orders could strand a pendant whose single
  // neighbor the hub grabbed.
  EdgeList list;
  list.nx = 11;
  list.ny = 11;
  for (vid_t y = 0; y < 11; ++y) list.edges.push_back({0, y});
  for (vid_t x = 1; x < 11; ++x) list.edges.push_back({x, x - 1});
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(streaming_karp_sipser(g, seed).cardinality(), 11) << seed;
  }
}

TEST(StreamingKarpSipser, EmptyAndDegenerateGraphs) {
  EdgeList list;
  list.nx = 4;
  list.ny = 0;
  EXPECT_EQ(streaming_karp_sipser(BipartiteGraph::from_edges(list))
                .cardinality(),
            0);
  list.ny = 4;  // still zero edges
  EXPECT_EQ(streaming_karp_sipser(BipartiteGraph::from_edges(list))
                .cardinality(),
            0);
}

}  // namespace
}  // namespace graftmatch
