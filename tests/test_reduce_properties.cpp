// Property battery for the kernelization pre-pass (ctest label:
// reduce; also runs in the TSan stress tier).
//
// The load-bearing properties, each checked against independent
// oracles (Hopcroft-Karp for nu, the Koenig certificate for
// maximality, validate_matching for well-formedness):
//   1. nu(kernel) + forced == nu(original), on the whole differential
//      corpus and on fresh random draws.
//   2. reconstruct_matching of a maximum kernel matching is a valid,
//      MAXIMUM matching of the original graph.
//   3. reduce -> compact -> reduce is idempotent: a second pass finds
//      nothing.
//   4. The pipeline is deterministic in the thread count: kernel, log,
//      and counters are bit-identical serial vs. parallel.
// Plus exact-counter checks on hand-built shapes (pendant cascades,
// irreducible cycles, degenerate graphs) and an end-to-end sweep
// through engine::run over every registry solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "diff_harness.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/prng.hpp"

namespace {

using namespace graftmatch;  // NOLINT

constexpr ReduceMode kMode = ReduceMode::kDegree1;

// Debug + TSan is an order of magnitude slower; thin dense sweeps so
// the stress tier stays in budget while every property still runs.
#if GRAFTMATCH_TSAN_ACTIVE
constexpr std::size_t kCorpusStride = 4;
constexpr int kRandomDraws = 12;
#else
constexpr std::size_t kCorpusStride = 1;
constexpr int kRandomDraws = 48;
#endif

const std::vector<diff::Instance>& corpus() {
  static const std::vector<diff::Instance> instances =
      diff::build_corpus(0x5EEDC0DEu);
  return instances;
}

std::int64_t oracle_nu(const diff::Instance& inst) {
  if (inst.known_maximum >= 0) return inst.known_maximum;
  return maximum_matching_cardinality(inst.graph);
}

/// Maximum matching of `g` via the Hopcroft-Karp oracle.
Matching solve_maximum(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m;
}

BipartiteGraph random_graph(Xoshiro256& rng) {
  const vid_t nx = 1 + static_cast<vid_t>(rng() % 40);
  const vid_t ny = 1 + static_cast<vid_t>(rng() % 40);
  const std::int64_t m = static_cast<std::int64_t>(
      rng() % static_cast<std::uint64_t>(2 * (nx + ny)));
  EdgeList list;
  list.nx = nx;
  list.ny = ny;
  for (std::int64_t e = 0; e < m; ++e) {
    list.edges.push_back({static_cast<vid_t>(rng() %
                                             static_cast<std::uint64_t>(nx)),
                          static_cast<vid_t>(rng() %
                                             static_cast<std::uint64_t>(ny))});
  }
  return BipartiteGraph::from_edges(list);
}

TEST(ReduceProperties, KernelNuPlusLiftedEqualsOriginalNuOnCorpus) {
  for (std::size_t i = 0; i < corpus().size(); i += kCorpusStride) {
    const diff::Instance& inst = corpus()[i];
    const std::int64_t nu = oracle_nu(inst);
    const reduce::Reduction red = reduce::reduce_graph(inst.graph, kMode);
    const std::int64_t kernel_nu =
        maximum_matching_cardinality(reduce::solve_graph(red, inst.graph));
    EXPECT_EQ(kernel_nu + red.stats.forced_matches, nu)
        << inst.name << " " << reduce::debug_summary(red);
  }
}

TEST(ReduceProperties, ReconstructionIsValidAndMaximumOnCorpus) {
  for (std::size_t i = 0; i < corpus().size(); i += kCorpusStride) {
    const diff::Instance& inst = corpus()[i];
    const std::int64_t nu = oracle_nu(inst);
    const reduce::Reduction red = reduce::reduce_graph(inst.graph, kMode);
    const Matching kernel_matching =
        solve_maximum(reduce::solve_graph(red, inst.graph));
    const Matching m =
        reduce::reconstruct_matching(inst.graph, red, kernel_matching);
    EXPECT_EQ(validate_matching(inst.graph, m), "")
        << inst.name << " " << reduce::debug_summary(red);
    EXPECT_TRUE(is_maximum_matching(inst.graph, m))
        << inst.name << " " << reduce::debug_summary(red);
    EXPECT_EQ(m.cardinality(), nu)
        << inst.name << " " << reduce::debug_summary(red);
  }
}

TEST(ReduceProperties, ReduceCompactReduceIsIdempotent) {
  for (std::size_t i = 0; i < corpus().size(); i += kCorpusStride) {
    const diff::Instance& inst = corpus()[i];
    const reduce::Reduction first = reduce::reduce_graph(inst.graph, kMode);
    const BipartiteGraph& k1 = reduce::solve_graph(first, inst.graph);
    const reduce::Reduction second = reduce::reduce_graph(k1, kMode);
    EXPECT_EQ(second.stats.forced_matches, 0)
        << inst.name << " " << reduce::debug_summary(second);
    EXPECT_EQ(second.stats.isolated_x, 0) << inst.name;
    EXPECT_EQ(second.stats.isolated_y, 0) << inst.name;
    EXPECT_TRUE(second.ops.empty()) << inst.name;
    // A second pass never finds anything, so it is always identity.
    EXPECT_TRUE(second.identity) << inst.name;
    const BipartiteGraph& k2 = reduce::solve_graph(second, k1);
    EXPECT_EQ(k2.num_x(), k1.num_x()) << inst.name;
    EXPECT_EQ(k2.num_y(), k1.num_y()) << inst.name;
    EXPECT_EQ(k2.num_edges(), k1.num_edges()) << inst.name;
  }
}

TEST(ReduceProperties, DeterministicAcrossThreadCounts) {
  // Sparse enough to reduce heavily, big enough (> 4096 edges) that the
  // degree and compaction phases actually open parallel regions.
  const BipartiteGraph g = generate_erdos_renyi(
      {.nx = 4000, .ny = 4000, .edges = 9000, .seed = 17});
  ASSERT_GT(g.num_edges(), 4096);
  reduce::Reduction serial;
  {
    const ThreadCountGuard guard(1);
    serial = reduce::reduce_graph(g, kMode);
  }
  const reduce::Reduction parallel = reduce::reduce_graph(g, kMode);
  EXPECT_EQ(serial.ops, parallel.ops);
  EXPECT_EQ(serial.kernel_x_to_orig, parallel.kernel_x_to_orig);
  EXPECT_EQ(serial.kernel_y_to_orig, parallel.kernel_y_to_orig);
  EXPECT_EQ(serial.stats.rounds, parallel.stats.rounds);
  EXPECT_EQ(serial.stats.isolated_x, parallel.stats.isolated_x);
  EXPECT_EQ(serial.stats.isolated_y, parallel.stats.isolated_y);
  EXPECT_EQ(serial.stats.forced_matches, parallel.stats.forced_matches);
  EXPECT_EQ(serial.identity, parallel.identity);
  const EdgeList a = reduce::solve_graph(serial, g).to_edges();
  const EdgeList b = reduce::solve_graph(parallel, g).to_edges();
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(a.ny, b.ny);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(ReduceProperties, PendantCascadeOnPath) {
  // Path x0-y0-x1-y1-x2-y2-x3: nu = 3, fully consumed by the pendant
  // rule (x3 goes isolated once y2 is taken).
  EdgeList list;
  list.nx = 4;
  list.ny = 3;
  list.edges = {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2}};
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  const reduce::Reduction red =
      reduce::reduce_graph(g, ReduceMode::kDegree1);
  EXPECT_EQ(red.stats.forced_matches, 3) << reduce::debug_summary(red);
  EXPECT_EQ(red.stats.isolated_x, 1);
  EXPECT_EQ(red.kernel.num_x(), 0);
  EXPECT_EQ(red.kernel.num_y(), 0);
  EXPECT_GE(red.stats.rounds, 2);  // the cascade needs multiple rounds

  const Matching m = reduce::reconstruct_matching(
      g, red, Matching(red.kernel.num_x(), red.kernel.num_y()));
  EXPECT_EQ(validate_matching(g, m), "");
  EXPECT_TRUE(is_maximum_matching(g, m));
  EXPECT_EQ(m.cardinality(), 3);
}

TEST(ReduceProperties, CycleIsIrreducible) {
  // C4: x0,x1 each adjacent to y0,y1; nu = 2. Every X has degree 2, so
  // the degree-1 rules find nothing and the reduction is the identity.
  EdgeList list;
  list.nx = 2;
  list.ny = 2;
  list.edges = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const BipartiteGraph g = BipartiteGraph::from_edges(list);

  const reduce::Reduction red = reduce::reduce_graph(g, ReduceMode::kDegree1);
  EXPECT_TRUE(red.identity) << reduce::debug_summary(red);
  EXPECT_EQ(reduce::solve_graph(red, g).num_edges(), g.num_edges());
  EXPECT_TRUE(red.ops.empty());

  const Matching m = reduce::reconstruct_matching(g, red, solve_maximum(g));
  EXPECT_TRUE(is_maximum_matching(g, m));
  EXPECT_EQ(m.cardinality(), 2);
}

TEST(ReduceProperties, DegenerateGraphs) {
  // Completely empty.
  const BipartiteGraph empty = BipartiteGraph::from_edges({0, 0, {}});
  const reduce::Reduction r0 = reduce::reduce_graph(empty, kMode);
  EXPECT_EQ(r0.kernel.num_vertices(), 0);
  EXPECT_TRUE(
      is_maximum_matching(empty, reduce::reconstruct_matching(
                                     empty, r0, Matching(0, 0))));

  // Edgeless parts: everything is isolated.
  const BipartiteGraph edgeless = BipartiteGraph::from_edges({3, 5, {}});
  const reduce::Reduction r1 = reduce::reduce_graph(edgeless, kMode);
  EXPECT_EQ(r1.kernel.num_vertices(), 0) << reduce::debug_summary(r1);
  EXPECT_EQ(r1.stats.isolated_x, 3);
  EXPECT_EQ(r1.stats.isolated_y, 5);
  const Matching m1 = reduce::reconstruct_matching(
      edgeless, r1, Matching(0, 0));
  EXPECT_TRUE(is_maximum_matching(edgeless, m1));

  // Star: one Y, many pendant X. One forced match, the rest isolated.
  EdgeList star;
  star.nx = 4;
  star.ny = 1;
  star.edges = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const BipartiteGraph gs = BipartiteGraph::from_edges(star);
  const reduce::Reduction r2 = reduce::reduce_graph(gs, kMode);
  EXPECT_EQ(r2.stats.forced_matches, 1) << reduce::debug_summary(r2);
  EXPECT_EQ(r2.stats.isolated_x, 3);
  EXPECT_EQ(r2.kernel.num_vertices(), 0);
  const Matching m2 = reduce::reconstruct_matching(gs, r2, Matching(0, 0));
  EXPECT_TRUE(is_maximum_matching(gs, m2));
  EXPECT_EQ(m2.cardinality(), 1);

  // K3,3: every X has degree 3; nothing reduces.
  EdgeList k33;
  k33.nx = 3;
  k33.ny = 3;
  for (vid_t x = 0; x < 3; ++x) {
    for (vid_t y = 0; y < 3; ++y) k33.edges.push_back({x, y});
  }
  const BipartiteGraph gk = BipartiteGraph::from_edges(k33);
  const reduce::Reduction r3 = reduce::reduce_graph(gk, kMode);
  EXPECT_TRUE(r3.ops.empty()) << reduce::debug_summary(r3);
  EXPECT_TRUE(r3.identity);
  EXPECT_EQ(reduce::solve_graph(r3, gk).num_edges(), 9);
  // Identity means no rebuilt kernel at all: the empty member proves
  // the no-copy fast path actually ran.
  EXPECT_EQ(r3.kernel.num_edges(), 0);
}

TEST(ReduceProperties, ModeNoneIsVerbatim) {
  const diff::Instance& inst = corpus().front();
  const reduce::Reduction red =
      reduce::reduce_graph(inst.graph, ReduceMode::kNone);
  EXPECT_EQ(red.kernel.num_x(), inst.graph.num_x());
  EXPECT_EQ(red.kernel.num_y(), inst.graph.num_y());
  EXPECT_EQ(red.kernel.num_edges(), inst.graph.num_edges());
  EXPECT_TRUE(red.ops.empty());
  const Matching kernel_matching = solve_maximum(red.kernel);
  const Matching m =
      reduce::reconstruct_matching(inst.graph, red, kernel_matching);
  EXPECT_TRUE(is_maximum_matching(inst.graph, m));
}

TEST(ReduceProperties, CountersAreConsistent) {
  for (std::size_t i = 0; i < corpus().size(); i += kCorpusStride) {
    const diff::Instance& inst = corpus()[i];
    const reduce::Reduction red = reduce::reduce_graph(inst.graph, kMode);
    const BipartiteGraph& kernel = reduce::solve_graph(red, inst.graph);
    const ReduceCounters& s = red.stats;
    EXPECT_TRUE(s.collected);
    EXPECT_EQ(s.mode, kMode);
    EXPECT_EQ(s.kernel_nx, kernel.num_x());
    EXPECT_EQ(s.kernel_ny, kernel.num_y());
    EXPECT_EQ(s.kernel_edges, kernel.num_edges());
    if (red.identity) {
      // Identity skips the rebuild; maps stay empty and nothing was
      // removed.
      EXPECT_TRUE(red.kernel_x_to_orig.empty());
      EXPECT_TRUE(red.kernel_y_to_orig.empty());
      EXPECT_EQ(s.vertices_removed, 0);
      EXPECT_EQ(s.edges_removed, 0);
    } else {
      EXPECT_GE(s.rounds, 1);
      EXPECT_EQ(static_cast<std::int64_t>(red.kernel_x_to_orig.size()),
                s.kernel_nx);
      EXPECT_EQ(static_cast<std::int64_t>(red.kernel_y_to_orig.size()),
                s.kernel_ny);
    }
    EXPECT_EQ(s.vertices_removed,
              (inst.graph.num_x() - s.kernel_nx) +
                  (inst.graph.num_y() - s.kernel_ny));
    EXPECT_EQ(s.edges_removed, inst.graph.num_edges() - s.kernel_edges);
    EXPECT_EQ(static_cast<std::int64_t>(red.ops.size()), s.forced_matches);
    EXPECT_GE(s.reduce_seconds, 0.0);
    EXPECT_GE(s.compact_seconds, 0.0);
  }
}

TEST(ReduceProperties, RandomSweepNuAndReconstruction) {
  Xoshiro256 rng(0xFEEDFACEu);
  for (int draw = 0; draw < kRandomDraws; ++draw) {
    const BipartiteGraph g = random_graph(rng);
    const std::int64_t nu = maximum_matching_cardinality(g);
    const reduce::Reduction red = reduce::reduce_graph(g, kMode);
    const BipartiteGraph& kernel = reduce::solve_graph(red, g);
    EXPECT_EQ(maximum_matching_cardinality(kernel) + red.stats.forced_matches,
              nu)
        << "draw " << draw << " " << reduce::debug_summary(red);
    const Matching m = reduce::reconstruct_matching(
        g, red, solve_maximum(kernel));
    EXPECT_EQ(validate_matching(g, m), "")
        << "draw " << draw << " " << reduce::debug_summary(red);
    EXPECT_TRUE(is_maximum_matching(g, m))
        << "draw " << draw << " " << reduce::debug_summary(red);
    EXPECT_EQ(m.cardinality(), nu) << "draw " << draw;
  }
}

TEST(ReduceProperties, RunReducedMatchesOracleForEverySolver) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < corpus().size() && checked < 3;
       i += 5, ++checked) {
    const diff::Instance& inst = corpus()[i];
    const std::int64_t nu = oracle_nu(inst);
    for (const std::string& solver : engine::solver_names()) {
      RunConfig config;
      config.reduce = kMode;
      Matching m;
      const RunStats stats = engine::run(solver, "none", inst.graph, m, config);
      EXPECT_EQ(validate_matching(inst.graph, m), "")
          << inst.name << " " << solver << " " << to_string(kMode);
      EXPECT_TRUE(is_maximum_matching(inst.graph, m))
          << inst.name << " " << solver << " " << to_string(kMode);
      EXPECT_EQ(m.cardinality(), nu) << inst.name << " " << solver;
      EXPECT_EQ(stats.final_cardinality, nu) << inst.name << " " << solver;
      EXPECT_TRUE(stats.reduce.collected);
      EXPECT_EQ(stats.reduce.mode, kMode);
      EXPECT_LE(stats.initial_cardinality, stats.final_cardinality);
    }
  }
  EXPECT_GE(checked, 1u);
}

}  // namespace
