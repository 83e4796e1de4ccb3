#include "graftmatch/baselines/push_relabel.hpp"

#include <algorithm>
#include <vector>

#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/engine/stats_sink.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch {
namespace {

/// Tiny per-vertex spinlock (one byte per Y vertex).
class SpinGuard {
 public:
  SpinGuard(std::uint8_t* locks, vid_t y) noexcept
      : lock_(locks[static_cast<std::size_t>(y)]) {
    while (std::atomic_ref<std::uint8_t>(lock_).exchange(
               1, std::memory_order_acquire) != 0) {
      // spin; critical sections are a handful of instructions
    }
  }
  ~SpinGuard() {
    std::atomic_ref<std::uint8_t>(lock_).store(0, std::memory_order_release);
  }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  std::uint8_t& lock_;
};

}  // namespace

RunStats push_relabel(SessionContext& session, const BipartiteGraph& g,
                      Matching& matching, const RunConfig& config) {
  const SessionScope scope(session);
  const int width = solve_width(g.num_edges(), config.threads);
  const ThreadCountGuard thread_guard(width);
  RunStats stats;
  engine::StatsSink sink(session, stats, "PR", matching, /*parallel=*/true);

  const vid_t nx = g.num_x();
  const vid_t ny = g.num_y();
  auto& mate_x = matching.mate_x();
  auto& mate_y = matching.mate_y();

  // Label "infinity": no displacement chain visits a Y vertex twice, so
  // any true distance is <= ny; ny + 1 certifies unreachability.
  const std::int64_t label_max = ny + 1;
  std::vector<std::int64_t> psi(static_cast<std::size_t>(ny), 0);
  std::vector<std::uint8_t> locks(static_cast<std::size_t>(ny), 0);

  // Exact labels via multi-source BFS from the free Y vertices:
  // psi[y] = number of double pushes a chain starting at y needs to
  // reach a free Y vertex (0 when y itself is free).
  std::vector<vid_t> frontier;
  std::vector<vid_t> next;
  const engine::Adjacency reverse_adj = engine::y_adjacency(g);
  const auto global_relabel = [&] {
    const auto lap = sink.scoped(engine::Step::kStatistics);
    std::fill(psi.begin(), psi.end(), label_max);
    frontier.clear();
    for (vid_t y = 0; y < ny; ++y) {
      if (mate_y[static_cast<std::size_t>(y)] == kInvalidVertex) {
        psi[static_cast<std::size_t>(y)] = 0;
        frontier.push_back(y);
      }
    }
    std::int64_t level = 0;
    while (!frontier.empty()) {
      next.clear();
      ++level;
      stats.edges_traversed += engine::scan_frontier_edges(
          reverse_adj, frontier, [&](vid_t, vid_t x) {
            const vid_t held = mate_x[static_cast<std::size_t>(x)];
            if (held != kInvalidVertex &&
                psi[static_cast<std::size_t>(held)] == label_max) {
              psi[static_cast<std::size_t>(held)] = level;
              next.push_back(held);
            }
            return true;
          });
      frontier.swap(next);
    }
  };

  global_relabel();

  FrontierQueue<vid_t> active(static_cast<std::size_t>(nx) + 16);
  FrontierQueue<vid_t> reactivated(static_cast<std::size_t>(nx) + 16);
  for (vid_t x = 0; x < nx; ++x) {
    if (mate_x[static_cast<std::size_t>(x)] == kInvalidVertex &&
        g.degree_x(x) > 0) {
      active.push(x);
    }
  }

  // Global-relabel cadence: every (n / frequency) pushes, per the
  // Langguth et al. tuning the paper adopts (frequency 2 serial, 16
  // parallel).
  const int relabel_frequency = width == 1 ? 2 : 16;
  const std::int64_t relabel_threshold =
      std::max<std::int64_t>(64, (nx + ny) / relabel_frequency);
  std::int64_t pushes_since_relabel = 0;

  // One double push for active vertex x. Returns the displaced X vertex
  // (to reactivate), x itself if it must retry later, or kInvalidVertex
  // when x was matched or retired. Thread-safe.
  auto double_push = [&](vid_t x, std::int64_t& edges) -> vid_t {
    for (;;) {
      // Scan x's neighbors for the two smallest labels.
      std::int64_t min1 = label_max + 1;
      std::int64_t min2 = label_max + 1;
      vid_t best = kInvalidVertex;
      for (const vid_t y : g.neighbors_of_x(x)) {
        ++edges;
        const std::int64_t label =
            relaxed_load(psi[static_cast<std::size_t>(y)]);
        if (label < min1) {
          min2 = min1;
          min1 = label;
          best = y;
        } else if (label < min2) {
          min2 = label;
        }
      }
      if (best == kInvalidVertex || min1 >= label_max) {
        return kInvalidVertex;  // unmatchable: retire x
      }

      const SpinGuard guard(locks.data(), best);
      // The label may have moved between scan and lock; retry if so.
      if (relaxed_load(psi[static_cast<std::size_t>(best)]) != min1) {
        continue;
      }
      const vid_t displaced = relaxed_load(mate_y[static_cast<std::size_t>(best)]);
      relaxed_store(mate_y[static_cast<std::size_t>(best)], x);
      relaxed_store(mate_x[static_cast<std::size_t>(x)], best);
      if (displaced != kInvalidVertex) {
        relaxed_store(mate_x[static_cast<std::size_t>(displaced)],
                      kInvalidVertex);
      }
      // Relabel: the next displacement from `best` must route through
      // x's second-best alternative.
      relaxed_store(psi[static_cast<std::size_t>(best)],
                    std::min(min2 + 1, label_max));
      return displaced;
    }
  };

  constexpr int kQueueLimit = 500;  // active vertices per grab (paper)
  while (!active.empty()) {
    sink.start(engine::Step::kTopDown);
    const engine::TraversalCounters counters = engine::for_each_chunked(
        active.items(), kQueueLimit, reactivated,
        [&](vid_t x, auto& out, engine::TraversalCounters& local) {
          if (relaxed_load(mate_x[static_cast<std::size_t>(x)]) !=
              kInvalidVertex) {
            return;  // stale entry
          }
          const vid_t displaced = double_push(x, local.edges);
          ++local.visits;  // one double push
          if (displaced != kInvalidVertex) out.push(displaced);
        });
    sink.stop(engine::Step::kTopDown);
    stats.edges_traversed += counters.edges;

    ++stats.phases;
    pushes_since_relabel += counters.visits;

    active.clear();
    active.swap(reactivated);
    if (pushes_since_relabel >= relabel_threshold && !active.empty()) {
      global_relabel();
      pushes_since_relabel = 0;
    }
  }

  sink.finish(matching);
  // PR has no augmenting paths; report one unit of gained cardinality
  // per "augmentation" so the shared stats invariants hold.
  stats.augmentations = stats.final_cardinality - stats.initial_cardinality;
  stats.total_path_edges = stats.augmentations;
  return stats;
}

RunStats push_relabel(const BipartiteGraph& g, Matching& matching,
                      const RunConfig& config) {
  return push_relabel(ambient_session(), g, matching, config);
}

}  // namespace graftmatch
