// Multithreaded Karp-Sipser-style initializer (after Azad, Halappanavar,
// Rajamanickam et al.'s parallel maximal matching work, which the paper
// cites as [4]).
//
// Rounds alternate between (a) a parallel sweep matching current
// degree-1 vertices (the safe rule) and (b) a parallel greedy sweep over
// remaining unmatched X vertices (the random rule). Mates are claimed
// with compare-and-swap; residual degrees are maintained with relaxed
// atomic decrements. A final serial sweep guarantees maximality.
#pragma once

#include <cstdint>

#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"

namespace graftmatch {

/// Parallel Karp-Sipser, solve_width(edges, threads) threads wide
/// (`threads <= 0` caps at the OpenMP default).
Matching parallel_karp_sipser(const BipartiteGraph& g, std::uint64_t seed = 1,
                              int threads = 0);

}  // namespace graftmatch
