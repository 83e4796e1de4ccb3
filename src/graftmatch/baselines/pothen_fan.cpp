#include "graftmatch/baselines/pothen_fan.hpp"

#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/engine/stats_sink.hpp"
#include "graftmatch/runtime/aligned.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch {
namespace {

/// Per-thread DFS workspace, reused across phases.
struct DfsWorkspace {
  /// DFS stack of (x vertex, next adjacency offset to scan).
  std::vector<std::pair<vid_t, eid_t>> stack;
  std::int64_t edges = 0;         ///< edges traversed by this thread
  std::int64_t paths = 0;         ///< augmenting paths found
  std::int64_t path_edges = 0;    ///< sum of their lengths
  std::map<std::int64_t, std::int64_t> histogram;  ///< optional lengths
  bool collect_histogram = false;
};

}  // namespace

RunStats pothen_fan(SessionContext& session, const BipartiteGraph& g,
                    Matching& matching, const RunConfig& config) {
  const SessionScope scope(session);
  const ThreadCountGuard thread_guard(
      solve_width(g.num_edges(), config.threads));
  RunStats stats;
  engine::StatsSink sink(session, stats, "Pothen-Fan", matching,
                         /*parallel=*/true);

  const vid_t nx = g.num_x();
  const vid_t ny = g.num_y();
  auto& mate_x = matching.mate_x();
  auto& mate_y = matching.mate_y();
  const auto x_offsets = g.x_offsets();
  const auto x_neighbors = g.x_neighbors();

  std::vector<std::uint8_t> visited(static_cast<std::size_t>(ny), 0);
  std::vector<vid_t> parent(static_cast<std::size_t>(ny), kInvalidVertex);
  // Lookahead cursor per X vertex: monotone scan position hunting for an
  // unmatched neighbor; each adjacency entry is looked at most once over
  // the whole run, giving PF its O(m) lookahead total.
  std::vector<eid_t> lookahead(static_cast<std::size_t>(nx));
  parallel_region([&] {
#pragma omp for schedule(static)
    for (vid_t x = 0; x < nx; ++x) {
      lookahead[static_cast<std::size_t>(x)] =
          x_offsets[static_cast<std::size_t>(x)];
    }
  });

  // Try to claim an unmatched Y neighbor of x via the lookahead cursor.
  // Returns the claimed vertex or kInvalidVertex. May claim a matched
  // vertex (lost race); the caller treats that as a regular tree child.
  const auto look_ahead = [&](vid_t x, std::int64_t& edges,
                              bool& claimed_matched) -> vid_t {
    eid_t& cursor = lookahead[static_cast<std::size_t>(x)];
    const eid_t end = x_offsets[static_cast<std::size_t>(x) + 1];
    while (cursor < end) {
      const vid_t y = x_neighbors[static_cast<std::size_t>(cursor)];
      ++cursor;
      ++edges;
      if (relaxed_load(mate_y[static_cast<std::size_t>(y)]) !=
          kInvalidVertex) {
        continue;  // matched: not a lookahead hit, leave for the DFS
      }
      if (!claim_flag(visited[static_cast<std::size_t>(y)])) continue;
      // Re-check after the claim: another thread may have matched y
      // between our read and our claim.
      claimed_matched = relaxed_load(mate_y[static_cast<std::size_t>(y)]) !=
                        kInvalidVertex;
      return y;
    }
    return kInvalidVertex;
  };

  // Flip the path ending at unmatched `leaf`, walking parent/mate
  // pointers up to the root. All path vertices are exclusively claimed
  // by this thread, so relaxed atomics suffice.
  const auto augment = [&](vid_t leaf, std::int64_t& path_edges) {
    vid_t y = leaf;
    while (y != kInvalidVertex) {
      const vid_t x = parent[static_cast<std::size_t>(y)];
      const vid_t next_y = relaxed_load(mate_x[static_cast<std::size_t>(x)]);
      relaxed_store(mate_x[static_cast<std::size_t>(x)], y);
      relaxed_store(mate_y[static_cast<std::size_t>(y)], x);
      ++path_edges;
      if (next_y != kInvalidVertex) ++path_edges;
      y = next_y;
    }
  };

  // One DFS-with-lookahead search from unmatched x0. Returns true when a
  // path was found (and augmented).
  const auto search = [&](vid_t x0, DfsWorkspace& ws, bool forward) -> bool {
    ws.stack.clear();
    ws.stack.push_back({x0, forward ? x_offsets[static_cast<std::size_t>(x0)]
                                    : x_offsets[static_cast<std::size_t>(x0) + 1]});
    while (!ws.stack.empty()) {
      auto& [x, position] = ws.stack.back();

      // Lookahead first: a direct unmatched neighbor ends the search.
      bool claimed_matched = false;
      const vid_t hit = look_ahead(x, ws.edges, claimed_matched);
      if (hit != kInvalidVertex && !claimed_matched) {
        parent[static_cast<std::size_t>(hit)] = x;
        std::int64_t path_edges = 0;
        augment(hit, path_edges);
        ++ws.paths;
        ws.path_edges += path_edges;
        if (ws.collect_histogram) ++ws.histogram[path_edges];
        return true;
      }
      if (hit != kInvalidVertex && claimed_matched) {
        // Claimed a matched vertex: descend into it like a DFS child.
        parent[static_cast<std::size_t>(hit)] = x;
        const vid_t mate = relaxed_load(mate_y[static_cast<std::size_t>(hit)]);
        ws.stack.push_back(
            {mate, forward ? x_offsets[static_cast<std::size_t>(mate)]
                           : x_offsets[static_cast<std::size_t>(mate) + 1]});
        continue;
      }

      // Regular DFS step over x's adjacency in the fair direction.
      vid_t child = kInvalidVertex;
      if (forward) {
        const eid_t end = x_offsets[static_cast<std::size_t>(x) + 1];
        while (position < end) {
          const vid_t y = x_neighbors[static_cast<std::size_t>(position++)];
          ++ws.edges;
          if (claim_flag(visited[static_cast<std::size_t>(y)])) {
            child = y;
            break;
          }
        }
      } else {
        const eid_t begin = x_offsets[static_cast<std::size_t>(x)];
        while (position > begin) {
          const vid_t y = x_neighbors[static_cast<std::size_t>(--position)];
          ++ws.edges;
          if (claim_flag(visited[static_cast<std::size_t>(y)])) {
            child = y;
            break;
          }
        }
      }
      if (child == kInvalidVertex) {
        ws.stack.pop_back();
        continue;
      }
      parent[static_cast<std::size_t>(child)] = x;
      const vid_t mate = relaxed_load(mate_y[static_cast<std::size_t>(child)]);
      if (mate == kInvalidVertex) {
        std::int64_t path_edges = 0;
        augment(child, path_edges);
        ++ws.paths;
        ws.path_edges += path_edges;
        if (ws.collect_histogram) ++ws.histogram[path_edges];
        return true;
      }
      ws.stack.push_back(
          {mate, forward ? x_offsets[static_cast<std::size_t>(mate)]
                         : x_offsets[static_cast<std::size_t>(mate) + 1]});
    }
    return false;
  };

  bool progress = true;
  bool forward = true;
  while (progress) {
    ++stats.phases;
    const auto lap = sink.scoped(engine::Step::kTopDown);
    first_touch_fill(visited, std::uint8_t{0});

    // Workspaces are per phase (fresh per team thread), so the merged
    // path count of one sweep is exactly this phase's progress.
    std::int64_t phase_paths = 0;
    engine::for_each_root_dynamic(
        nx, /*chunk=*/16,
        [&] {
          DfsWorkspace ws;
          ws.collect_histogram = config.collect_path_histogram;
          return ws;
        },
        [&](vid_t x0, DfsWorkspace& ws) {
          if (relaxed_load(mate_x[static_cast<std::size_t>(x0)]) !=
              kInvalidVertex)
            return;
          search(x0, ws, forward);
        },
        [&](const DfsWorkspace& ws) {
          phase_paths += ws.paths;
          stats.edges_traversed += ws.edges;
          stats.augmentations += ws.paths;
          stats.total_path_edges += ws.path_edges;
          for (const auto& [length, count] : ws.histogram) {
            stats.path_length_histogram[length] += count;
          }
        });

    progress = phase_paths > 0;
    forward = !forward;  // fairness: alternate the scan direction
  }

  sink.finish(matching);
  return stats;
}

RunStats pothen_fan(const BipartiteGraph& g, Matching& matching,
                    const RunConfig& config) {
  return pothen_fan(ambient_session(), g, matching, config);
}

}  // namespace graftmatch
