// Differential oracle battery for the dynamic/ subsystem.
//
// The DynamicMatcher claims a MAXIMUM matching after every churn batch;
// nothing in this file trusts that claim. After every randomized
// add/remove batch the matcher's graph is materialized and re-solved
// from scratch with Hopcroft-Karp (baselines/, zero code shared with
// the incremental path), the cardinalities must agree exactly, and the
// Koenig certificate must accept the incremental matching on the
// materialized CSR. A second battery drives tiny graphs through
// exhaustive churn sequences against a self-contained Kuhn reference,
// and the staleness/compaction knobs are swept to their degenerate
// settings (always-resolve, compact-every-batch, streak-of-one) to
// prove the heuristics are cost-only: every setting must produce the
// same cardinality trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/dynamic/overlay.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/gen/grid.hpp"
#include "graftmatch/gen/rmat.hpp"
#include "graftmatch/gen/sbm.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "json_check.hpp"

namespace graftmatch {
namespace {

using dynamic::DynamicConfig;
using dynamic::DynamicMatcher;
using dynamic::GraphOverlay;

std::int64_t hk_cardinality(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m.cardinality();
}

/// Six structurally distinct generators, small enough that the
/// per-batch from-scratch oracle stays cheap.
BipartiteGraph corpus_graph(int which, std::uint64_t seed) {
  switch (which) {
    case 0: {
      ErdosRenyiParams p;
      p.nx = 400;
      p.ny = 360;
      p.edges = 1800;
      p.seed = seed;
      return generate_erdos_renyi(p);
    }
    case 1: {
      GridParams p;
      p.width = 20;
      p.height = 20;
      p.diagonal_drop = 0.3;  // imperfect, so deletions hit matched edges
      p.seed = seed;
      return generate_grid(p);
    }
    case 2: {
      WebCrawlParams p;
      p.nx = 400;
      p.ny = 350;
      p.avg_degree = 4.0;
      p.hub_count = 12;
      p.seed = seed;
      return generate_webcrawl(p);
    }
    case 3: {
      ChungLuParams p;
      p.nx = 400;
      p.ny = 400;
      p.avg_degree = 5.0;
      p.max_degree = 64;
      p.seed = seed;
      return generate_chung_lu(p);
    }
    case 4: {
      SbmParams p;
      p.rows_per_block = 60;
      p.cols_per_block = 50;
      p.blocks = 6;
      p.in_degree = 3.0;
      p.out_degree = 0.2;
      p.seed = seed;
      return generate_sbm(p);
    }
    default: {
      RmatParams p;
      p.scale = 8;
      p.edge_factor = 6.0;
      p.seed = seed;
      return generate_rmat(p);
    }
  }
}

constexpr int kCorpusSize = 6;
const char* corpus_name(int which) {
  static const char* kNames[kCorpusSize] = {"er",       "grid", "webcrawl",
                                            "chung_lu", "sbm",  "rmat"};
  return kNames[which];
}

/// Deterministic churn driver: interleaves removals (drawn from the
/// live edge set) and insertions (removed edges re-added plus fresh
/// random pairs), checking the matcher against the oracle after every
/// batch. Batch sizes sweep 1..256 so single-edge updates and
/// bulk updates both get covered.
void churn_against_oracle(const BipartiteGraph& start, std::uint64_t seed,
                          const DynamicConfig& config,
                          const std::string& label, int batches = 10) {
  SessionContext session;
  DynamicMatcher matcher(session, start, config);

  Xoshiro256 rng(mix64(seed ^ 0xd15c0u));
  std::vector<Edge> live = start.to_edges().edges;
  std::vector<Edge> removed;
  const int kBatchSizes[] = {1, 3, 16, 64, 256};
  for (int step = 0; step < batches; ++step) {
    const int want =
        kBatchSizes[step % (sizeof(kBatchSizes) / sizeof(kBatchSizes[0]))];
    std::vector<Edge> batch;
    const bool remove = (step % 2) == 0;
    if (remove) {
      for (int k = 0; k < want && !live.empty(); ++k) {
        const std::size_t pick = rng.below(live.size());
        batch.push_back(live[pick]);
        removed.push_back(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      matcher.remove_edges(batch);
    } else {
      for (int k = 0; k < want; ++k) {
        if (!removed.empty() && rng.below(2) == 0) {
          batch.push_back(removed.back());
          removed.pop_back();
        } else {
          batch.push_back({static_cast<vid_t>(rng.below(
                               static_cast<std::uint64_t>(start.num_x()))),
                           static_cast<vid_t>(rng.below(
                               static_cast<std::uint64_t>(start.num_y())))});
        }
      }
      matcher.add_edges(batch);
      for (const Edge& e : batch) live.push_back(e);
    }
    // De-dup `live` lazily: insertion of an already-live edge is a
    // no-op in the matcher, and double-removal batches are themselves
    // a case worth exercising.

    const BipartiteGraph snapshot = matcher.materialize();
    ASSERT_TRUE(is_valid_matching(snapshot, matcher.matching()))
        << label << " step " << step;
    ASSERT_EQ(matcher.cardinality(), matcher.matching().cardinality())
        << label << " step " << step;
    ASSERT_EQ(matcher.cardinality(), hk_cardinality(snapshot))
        << label << " step " << step << " (oracle disagrees)";
    ASSERT_TRUE(is_maximum_matching(snapshot, matcher.matching()))
        << label << " step " << step << " (Koenig rejects)";
  }
}

TEST(DynamicChurn, OracleParityAcrossGeneratorsAndSeeds) {
  for (int which = 0; which < kCorpusSize; ++which) {
    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
      const BipartiteGraph g = corpus_graph(which, seed);
      churn_against_oracle(g, seed, DynamicConfig{},
                           std::string(corpus_name(which)) + "/" +
                               std::to_string(seed));
    }
  }
}

TEST(DynamicChurn, KnobSettingsAreCostOnly) {
  // Degenerate heuristic settings must not change any cardinality:
  // always-resolve, compact-every-batch, failure-streak-of-one, and a
  // never-resolve/never-compact overlay that only re-augments.
  const BipartiteGraph g = corpus_graph(0, 21);
  DynamicConfig always_resolve;
  always_resolve.staleness_delta_fraction = 0.0;
  DynamicConfig always_compact;
  always_compact.compact_fraction = 0.0;
  DynamicConfig streak_one;
  streak_one.staleness_failure_streak = 1;
  DynamicConfig never;
  never.staleness_delta_fraction = 1e9;
  never.compact_fraction = 1e9;
  churn_against_oracle(g, 21, always_resolve, "always_resolve");
  churn_against_oracle(g, 21, always_compact, "always_compact");
  churn_against_oracle(g, 21, streak_one, "streak_one");
  churn_against_oracle(g, 21, never, "never");
}

TEST(DynamicChurn, SelfCheckingModeAndOtherSolvers) {
  // check_invariants audits inside the matcher after every batch; the
  // resolve path must also work through a non-default solver entry.
  const BipartiteGraph g = corpus_graph(2, 31);
  DynamicConfig config;
  config.check_invariants = true;
  config.solver = "hk";
  config.initializer = "streaming_ks";
  config.staleness_delta_fraction = 0.05;  // force frequent re-solves
  churn_against_oracle(g, 31, config, "audited_hk");
}

// ---- exhaustive tiny-graph churn against an independent Kuhn
// reference (adjacency-matrix based, no library code).
class KuhnReference {
 public:
  KuhnReference(int nx, int ny, const std::vector<std::vector<bool>>& adj)
      : nx_(nx), ny_(ny), adj_(adj),
        mate_y_(static_cast<std::size_t>(ny), -1) {}

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
      const auto yi = static_cast<std::size_t>(y);
      if (!adj_[static_cast<std::size_t>(x)][yi] || seen_[yi]) continue;
      seen_[yi] = true;
      if (mate_y_[yi] < 0 || try_augment(mate_y_[yi])) {
        mate_y_[yi] = x;
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

TEST(DynamicChurn, ExhaustiveTinyChurnVsKuhn) {
  // Tiny graphs hit the degenerate shapes (empty sides, isolated
  // vertices, complete blocks) far more densely than the corpus does.
  // 4x4 universe, every churn sequence of 8 single-edge flips over a
  // random starting graph, cross-checked against Kuhn on the adjacency
  // matrix after EVERY flip.
  Xoshiro256 rng(mix64(0xe4a57));
  for (int trial = 0; trial < 150; ++trial) {
    const int nx = 1 + static_cast<int>(rng.below(4));
    const int ny = 1 + static_cast<int>(rng.below(4));
    std::vector<std::vector<bool>> adj(
        static_cast<std::size_t>(nx),
        std::vector<bool>(static_cast<std::size_t>(ny), false));
    EdgeList list;
    list.nx = nx;
    list.ny = ny;
    const double density = rng.uniform();
    for (int x = 0; x < nx; ++x) {
      for (int y = 0; y < ny; ++y) {
        if (rng.uniform() < density) {
          adj[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] =
              true;
          list.edges.push_back({x, y});
        }
      }
    }
    SessionContext session;
    DynamicConfig config;
    config.check_invariants = true;
    DynamicMatcher matcher(session, BipartiteGraph::from_edges(list),
                           config);
    for (int flip = 0; flip < 8; ++flip) {
      const int x = static_cast<int>(rng.below(static_cast<std::uint64_t>(nx)));
      const int y = static_cast<int>(rng.below(static_cast<std::uint64_t>(ny)));
      auto cell = adj[static_cast<std::size_t>(x)].begin() + y;
      const Edge e{x, y};
      if (*cell) {
        *cell = false;
        EXPECT_EQ(matcher.remove_edges({&e, 1}), 1);
      } else {
        *cell = true;
        EXPECT_EQ(matcher.add_edges({&e, 1}), 1);
      }
      KuhnReference reference(nx, ny, adj);
      ASSERT_EQ(matcher.cardinality(), reference.solve())
          << "trial " << trial << " flip " << flip << " nx=" << nx
          << " ny=" << ny;
    }
  }
}

// ---- GraphOverlay unit contracts.

BipartiteGraph tiny_graph() {
  EdgeList list;
  list.nx = 3;
  list.ny = 3;
  list.edges = {{0, 0}, {0, 1}, {1, 1}, {2, 2}};
  return BipartiteGraph::from_edges(list);
}

TEST(GraphOverlay, InsertEraseResurrectRoundTrip) {
  GraphOverlay overlay(tiny_graph());
  EXPECT_EQ(overlay.live_edges(), 4);
  EXPECT_TRUE(overlay.has_edge(0, 1));
  EXPECT_FALSE(overlay.insert(0, 1));  // already live in the base
  EXPECT_TRUE(overlay.erase(0, 1));    // tombstone
  EXPECT_FALSE(overlay.has_edge(0, 1));
  EXPECT_EQ(overlay.live_edges(), 3);
  EXPECT_EQ(overlay.cost(), 1);
  EXPECT_FALSE(overlay.erase(0, 1));  // double erase is a no-op
  EXPECT_TRUE(overlay.insert(0, 1));  // resurrects the tombstoned slot
  EXPECT_TRUE(overlay.has_edge(0, 1));
  EXPECT_EQ(overlay.cost(), 0);  // resurrection, not a delta entry
  EXPECT_TRUE(overlay.insert(2, 0));  // genuinely new -> delta
  EXPECT_EQ(overlay.cost(), 1);
  EXPECT_EQ(overlay.live_edges(), 5);
  EXPECT_TRUE(overlay.erase(2, 0));  // delta removal, not a tombstone
  EXPECT_EQ(overlay.cost(), 0);
  EXPECT_THROW(overlay.insert(3, 0), std::out_of_range);
  EXPECT_THROW(overlay.erase(0, -1), std::out_of_range);
  EXPECT_FALSE(overlay.has_edge(5, 5));  // out of range reads are false
}

TEST(GraphOverlay, DegreesAndNeighborIterationTrackLiveSet) {
  GraphOverlay overlay(tiny_graph());
  ASSERT_TRUE(overlay.erase(0, 0));
  ASSERT_TRUE(overlay.insert(0, 2));
  EXPECT_EQ(overlay.degree_x(0), 2);  // {1 (base), 2 (delta)}
  EXPECT_EQ(overlay.degree_y(2), 2);  // {0 (delta), 2 (base)}
  EXPECT_EQ(overlay.degree_y(0), 0);
  std::vector<vid_t> seen;
  overlay.for_each_neighbor_x(0, [&](vid_t y) {
    seen.push_back(y);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<vid_t>{1, 2}));
  seen.clear();
  overlay.for_each_neighbor_y(2, [&](vid_t x) {
    seen.push_back(x);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<vid_t>{2, 0}));  // base slots, then delta
  // Early exit: callback returning false stops the walk.
  int visits = 0;
  EXPECT_FALSE(overlay.for_each_neighbor_x(0, [&](vid_t) {
    ++visits;
    return false;
  }));
  EXPECT_EQ(visits, 1);
}

TEST(GraphOverlay, MaterializeAndCompactPreserveLiveSet) {
  ErdosRenyiParams params;
  params.nx = 80;
  params.ny = 70;
  params.edges = 300;
  const BipartiteGraph g = generate_erdos_renyi(params);
  GraphOverlay overlay(g);
  Xoshiro256 rng(mix64(7));
  for (int k = 0; k < 120; ++k) {
    const vid_t x = static_cast<vid_t>(rng.below(80));
    const vid_t y = static_cast<vid_t>(rng.below(70));
    if (overlay.has_edge(x, y)) {
      overlay.erase(x, y);
    } else {
      overlay.insert(x, y);
    }
  }
  const BipartiteGraph before = overlay.materialize();
  const std::int64_t live = overlay.live_edges();
  EXPECT_EQ(before.num_edges(), live);
  for (vid_t x = 0; x < before.num_x(); ++x) {
    for (const vid_t y : before.neighbors_of_x(x)) {
      EXPECT_TRUE(overlay.has_edge(x, y));
    }
  }
  overlay.compact();
  EXPECT_EQ(overlay.cost(), 0);
  EXPECT_EQ(overlay.live_edges(), live);
  EXPECT_EQ(overlay.base_edges(), live);
  const BipartiteGraph after = overlay.materialize();
  for (vid_t x = 0; x < before.num_x(); ++x) {
    ASSERT_EQ(before.degree_x(x), after.degree_x(x)) << x;
  }
}

// ---- counters and the strict-JSON "dynamic" stats block.

TEST(DynamicStats, CountersAndStrictJson) {
  SessionContext session;
  DynamicConfig config;
  config.compact_fraction = 0.0;  // force compactions so the counter moves
  const BipartiteGraph g = corpus_graph(0, 41);
  DynamicMatcher matcher(session, g, config);

  const EdgeList edges = g.to_edges();
  std::vector<Edge> batch(edges.edges.begin(), edges.edges.begin() + 32);
  EXPECT_EQ(matcher.remove_edges(batch), 32);
  EXPECT_EQ(matcher.add_edges(batch), 32);
  EXPECT_EQ(matcher.add_edges(batch), 0);  // all already live

  const RunStats stats = matcher.stats();
  EXPECT_EQ(stats.algorithm, "dynamic+graft");
  ASSERT_TRUE(stats.dynamic.collected);
  EXPECT_EQ(stats.dynamic.batches, 3);
  EXPECT_EQ(stats.dynamic.edges_added, 32);
  EXPECT_EQ(stats.dynamic.edges_removed, 32);
  EXPECT_GE(stats.dynamic.compactions, 1);
  EXPECT_GE(stats.dynamic.overlay_peak, 1);
  EXPECT_EQ(stats.final_cardinality, matcher.cardinality());

  std::string error;
  EXPECT_TRUE(testing::json_valid(run_stats_json(stats), &error)) << error;
}

TEST(DynamicStats, ResolveAndCompactEntryPoints) {
  SessionContext session;
  const BipartiteGraph g = corpus_graph(4, 51);
  DynamicConfig config;
  config.staleness_delta_fraction = 1e9;  // never auto-resolve
  config.compact_fraction = 1e9;          // never auto-compact
  DynamicMatcher matcher(session, g, config);
  const std::int64_t before = matcher.cardinality();

  const EdgeList edges = g.to_edges();
  std::vector<Edge> batch(edges.edges.begin(), edges.edges.begin() + 16);
  matcher.remove_edges(batch);
  EXPECT_GT(matcher.overlay().cost(), 0);
  matcher.compact();
  EXPECT_EQ(matcher.overlay().cost(), 0);
  EXPECT_EQ(matcher.stats().dynamic.compactions, 1);
  EXPECT_EQ(matcher.cardinality(), hk_cardinality(matcher.materialize()));

  matcher.resolve();
  EXPECT_EQ(matcher.stats().dynamic.resolves, 1);
  EXPECT_EQ(matcher.cardinality(), hk_cardinality(matcher.materialize()));

  matcher.add_edges(batch);
  EXPECT_EQ(matcher.cardinality(), before);
}

}  // namespace
}  // namespace graftmatch
