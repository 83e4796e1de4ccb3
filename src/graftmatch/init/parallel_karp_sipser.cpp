#include "graftmatch/init/parallel_karp_sipser.hpp"

#include <vector>

#include "graftmatch/engine/edge_partition.hpp"
#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/prng.hpp"

namespace graftmatch {
namespace {

// Two-sided CAS claim of the edge (x, y). Claims y first; rolls back if
// x was taken concurrently. Returns true when the match was made.
bool try_match(std::vector<vid_t>& mate_x, std::vector<vid_t>& mate_y,
               vid_t x, vid_t y) {
  if (!cas(mate_y[static_cast<std::size_t>(y)], kInvalidVertex, x)) {
    return false;
  }
  if (!cas(mate_x[static_cast<std::size_t>(x)], kInvalidVertex, y)) {
    relaxed_store(mate_y[static_cast<std::size_t>(y)], kInvalidVertex);
    return false;
  }
  return true;
}

}  // namespace

Matching parallel_karp_sipser(const BipartiteGraph& g, std::uint64_t seed,
                              int threads) {
  const ThreadCountGuard guard(solve_width(g.num_edges(), threads));
  const vid_t nx = g.num_x();
  const vid_t ny = g.num_y();
  Matching matching(nx, ny);
  auto& mate_x = matching.mate_x();
  auto& mate_y = matching.mate_y();

  // Residual degrees, updated with atomic decrements.
  std::vector<eid_t> deg_x(static_cast<std::size_t>(nx));
  std::vector<eid_t> deg_y(static_cast<std::size_t>(ny));
  parallel_region([&] {
#pragma omp for schedule(static) nowait
    for (vid_t x = 0; x < nx; ++x) {
      deg_x[static_cast<std::size_t>(x)] = g.degree_x(x);
    }
#pragma omp for schedule(static)
    for (vid_t y = 0; y < ny; ++y) {
      deg_y[static_cast<std::size_t>(y)] = g.degree_y(y);
    }
  });

  // Degree-1 work queues; X vertices stored as-is, Y shifted by nx.
  const auto capacity = static_cast<std::size_t>(nx + ny);
  FrontierQueue<vid_t> current(capacity);
  FrontierQueue<vid_t> next(capacity);
  engine::EdgePartition partition;

  engine::collect_if(nx + ny, current, [&](vid_t id) {
    return id < nx ? deg_x[static_cast<std::size_t>(id)] == 1
                   : deg_y[static_cast<std::size_t>(id - nx)] == 1;
  });

  // After matching (x, y), decrement the residual degree of every
  // still-unmatched neighbor; the thread that performs the 2 -> 1
  // transition enqueues the vertex (exactly-once by fetch_add return).
  const auto retire = [&](vid_t x, vid_t y, auto& out) {
    for (const vid_t w : g.neighbors_of_x(x)) {
      if (relaxed_load(mate_y[static_cast<std::size_t>(w)]) ==
              kInvalidVertex &&
          fetch_add_relaxed(deg_y[static_cast<std::size_t>(w)], eid_t{-1}) ==
              2) {
        out.push(w + nx);
      }
    }
    for (const vid_t w : g.neighbors_of_y(y)) {
      if (relaxed_load(mate_x[static_cast<std::size_t>(w)]) ==
              kInvalidVertex &&
          fetch_add_relaxed(deg_x[static_cast<std::size_t>(w)], eid_t{-1}) ==
              2) {
        out.push(w);
      }
    }
  };

  const auto process_degree_one = [&](vid_t id, auto& out) {
    if (id < nx) {
      const vid_t x = id;
      if (relaxed_load(mate_x[static_cast<std::size_t>(x)]) != kInvalidVertex)
        return;
      for (const vid_t y : g.neighbors_of_x(x)) {
        if (relaxed_load(mate_y[static_cast<std::size_t>(y)]) !=
            kInvalidVertex)
          continue;
        if (try_match(mate_x, mate_y, x, y)) {
          retire(x, y, out);
          return;
        }
      }
    } else {
      const vid_t y = id - nx;
      if (relaxed_load(mate_y[static_cast<std::size_t>(y)]) != kInvalidVertex)
        return;
      for (const vid_t x : g.neighbors_of_y(y)) {
        if (relaxed_load(mate_x[static_cast<std::size_t>(x)]) !=
            kInvalidVertex)
          continue;
        if (try_match(mate_x, mate_y, x, y)) {
          retire(x, y, out);
          return;
        }
      }
    }
  };

  // A degree-1 vertex's cost is dominated by retire()'s scan of the
  // matched pair's adjacencies, so balance the drain by graph degree.
  const auto work_weight = [&](vid_t id) {
    return static_cast<std::int64_t>(id < nx ? g.degree_x(id)
                                             : g.degree_y(id - nx));
  };
  const auto drain_degree_one = [&] {
    while (!current.empty()) {
      engine::for_each_work_item(current.items(), work_weight, next,
                                 partition, process_degree_one);
      current.clear();
      current.swap(next);
    }
  };

  drain_degree_one();

  // Random rule: parallel greedy sweep over unmatched X vertices in a
  // hash-scrambled order, then give the safe rule another chance.
  const std::uint64_t salt = mix64(seed);
  engine::for_each_index_dynamic(nx, 256, next, [&](vid_t i, auto& out) {
    const auto x = static_cast<vid_t>(
        (static_cast<std::uint64_t>(i) + salt) %
        static_cast<std::uint64_t>(nx));
    if (relaxed_load(mate_x[static_cast<std::size_t>(x)]) != kInvalidVertex)
      return;
    for (const vid_t y : g.neighbors_of_x(x)) {
      if (relaxed_load(mate_y[static_cast<std::size_t>(y)]) !=
          kInvalidVertex)
        continue;
      if (try_match(mate_x, mate_y, x, y)) {
        retire(x, y, out);
        break;
      }
    }
  });
  current.clear();
  current.swap(next);
  drain_degree_one();

  // The CAS rollback in try_match can transiently hide a free Y vertex
  // from a concurrent scan, so finish with a serial maximality sweep.
  for (vid_t x = 0; x < nx; ++x) {
    if (matching.is_matched_x(x)) continue;
    for (const vid_t y : g.neighbors_of_x(x)) {
      if (!matching.is_matched_y(y)) {
        matching.match(x, y);
        break;
      }
    }
  }
  return matching;
}

}  // namespace graftmatch
