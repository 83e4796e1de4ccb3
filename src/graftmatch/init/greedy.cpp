#include "graftmatch/init/greedy.hpp"

#include <span>
#include <vector>

#include "graftmatch/runtime/prng.hpp"

namespace graftmatch {

Matching greedy_maximal(const BipartiteGraph& g) {
  Matching matching(g.num_x(), g.num_y());
  for (vid_t x = 0; x < g.num_x(); ++x) {
    for (const vid_t y : g.neighbors_of_x(x)) {
      if (!matching.is_matched_y(y)) {
        matching.match(x, y);
        break;
      }
    }
  }
  return matching;
}

Matching randomized_greedy(const BipartiteGraph& g, std::uint64_t seed) {
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

  // The shuffled order makes every adjacency fetch a cache miss, so
  // the loop prefetches ahead of itself: the offsets of the vertex 16
  // visits ahead, then the head and middle of the adjacency of the
  // vertex 8 ahead (whose offsets arrived 8 visits ago). The probe start
  // is random, so the middle line is as likely to be read as the head.
  // Prefetches never change a result; the RNG draws stay in order.
  const std::span<const eid_t> offsets = g.x_offsets();
  const vid_t* const neighbors = g.x_neighbors().data();
  const std::size_t count = order.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + 16 < count) {
      __builtin_prefetch(&offsets[static_cast<std::size_t>(order[i + 16])]);
    }
    if (i + 8 < count) {
      const auto ahead = static_cast<std::size_t>(order[i + 8]);
      const eid_t begin = offsets[ahead];
      __builtin_prefetch(neighbors + begin);
      __builtin_prefetch(neighbors + begin + (offsets[ahead + 1] - begin) / 2);
    }
    const vid_t x = order[i];
    const auto adj = g.neighbors_of_x(x);
    if (adj.empty()) continue;
    // Probe from a random start so hub columns aren't always preferred.
    const auto start =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(
            adj.size())));
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

bool is_maximal_matching(const BipartiteGraph& g, const Matching& m) {
  for (vid_t x = 0; x < g.num_x(); ++x) {
    if (m.is_matched_x(x)) continue;
    for (const vid_t y : g.neighbors_of_x(x)) {
      if (!m.is_matched_y(y)) return false;
    }
  }
  return true;
}

}  // namespace graftmatch
