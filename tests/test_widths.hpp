// Graph sizes at which a solve runs as wide as a test asks. Each solve
// runs solve_width(edges, threads) wide, so a test that wants a team of
// w threads needs a graph above (w - 1) * kEdgesPerThread edges; these
// helpers build it and let the test assert RunStats::threads_used == w.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>

#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/prng.hpp"

namespace graftmatch {

/// Fewest edges at which solve_width() grants `width`.
constexpr std::int64_t edges_for_width(int width) {
  return (width - 1) * kEdgesPerThread + 1;
}

/// The first of make(1), make(2), ... on which solve_width() grants
/// `width`; make(k) builds a test's graph at its k-th size.
template <typename Make>
BipartiteGraph graph_for_width(int width, Make make) {
  for (int k = 1;; ++k) {
    BipartiteGraph g = make(k);
    if (g.num_edges() >= edges_for_width(width)) return g;
  }
}

/// Widest team the stress harnesses draw, whatever the core count, so
/// their graphs (and their cost) do not grow with the host.
inline constexpr int kMaxStressWidth = 8;

/// Random width in [1, min(2 * cores, kMaxStressWidth)]:
/// oversubscription forces preemption inside parallel regions, the
/// cheapest scheduling fuzzer.
inline int random_width(Xoshiro256& rng) {
  const int widest = std::min(2 * omp_get_num_procs(), kMaxStressWidth);
  return 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(widest)));
}

/// Fewest edges at which solve_width() grants every width random_width()
/// draws; harnesses build graphs above it and assert threads_used.
constexpr std::int64_t wide_edges() {
  return edges_for_width(kMaxStressWidth);
}

/// graph_for_width() at every width random_width() draws.
template <typename Make>
BipartiteGraph wide_graph(Make make) {
  return graph_for_width(kMaxStressWidth, make);
}

}  // namespace graftmatch
