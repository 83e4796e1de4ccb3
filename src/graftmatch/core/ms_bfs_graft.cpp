#include "graftmatch/core/ms_bfs_graft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "graftmatch/engine/edge_partition.hpp"
#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/engine/stats_sink.hpp"
#include "graftmatch/engine/word_kernels.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/epoch_array.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch {
namespace {

using engine::Step;

// Phase-bookkeeping scheme (the "epoch" design; containers in
// runtime/epoch_array.hpp, storage in core/graft_workspace.hpp):
//
//  * Forest validity is epoch-versioned. root_x[x] is meaningful iff
//    root_stamp marks x; leaf[r] iff leaf_stamp marks r. Both stamps
//    share the FOREST epoch, bumped on every rebuild, so tearing all
//    trees down is O(1) instead of an O(nx) root_x clear. Within an
//    epoch, a valid leaf entry on a (by now matched) ex-root persists
//    as a tombstone -- exactly the semantics the non-epoch code got
//    from never clearing the leaf array -- so in_active_tree() keeps
//    reporting those trees dead.
//
//  * visited is a word-packed atomic bitmap; parent[y]/root_y[y] are
//    meaningful iff y's bit is set (freeing a Y vertex clears only the
//    bit and leaves the values stale).
//
//  * active_x is the per-pass eligible-parent bitmap. Bits are set at
//    pass boundaries (publish_frontier) for the new frontier's members
//    and dropped when their tree dies, so the bottom-up inner loop
//    rejects the common case -- x not in any active tree at the last
//    boundary -- with ONE bit load instead of the old x_join_time
//    timestamp compare plus in_active_tree()'s two dependent loads.
//    Setting bits only at pass boundaries is also what keeps the
//    search level-synchronous (vertices joining during a pass are not
//    eligible parents within it). The bit cannot see trees that died
//    MID-pass, and attaching a candidate to a dead tree would waste it
//    for the phase, so bit-positive vertices confirm through the
//    root/leaf chain before claiming (see bottom_up's try_edge).
//
//  * Bottom-up candidates live in a persistent pool instead of being
//    recollected with an O(ny) sweep per phase. The pool is built
//    lazily from the visited-bitmap complement (word-level ctz
//    compaction) when a bottom-up pass needs it, then maintained
//    incrementally under the invariant "pool_stamp marks y <=> y is
//    physically in the pool": membership ends ONLY inside a pool scan
//    (which clears the stamp of every entry it drops, visited or
//    attached), and freed Y vertices are re-inserted iff unstamped.
//    The pool is therefore always a superset of the unvisited set,
//    which is all bottom_up needs. A rebuild frees the whole forest's
//    Y set at once; rather than pay O(|forest|) reinserting it, the
//    rebuild drops the pool and the next build's stamp bump retires
//    the stale memberships in O(1).
//
//  * Classification sweeps are incremental: the traversal kernels
//    track every Y vertex claimed this phase (touched_y); together
//    with the carried members of surviving active trees (carry_y) the
//    list covers the forest's Y set exactly, so the renewable/active
//    split scans O(|forest Y|) per phase instead of O(ny). The X side
//    needs no list at all: an active tree is its root plus the
//    (distinct) mates of its active Y members, so |activeX| is derived
//    as |surviving roots| + |activeY|. The still-unmatched roots list
//    makes renewable-root collection and rebuild re-rooting O(|roots|).

/// Per-run view: graph/matching references plus the reusable workspace.
struct GraftState {
  const BipartiteGraph& g;
  std::vector<vid_t>& mate_x;
  std::vector<vid_t>& mate_y;
  GraftWorkspace& ws;

  std::int64_t unvisited_y = 0;  ///< for the direction heuristic
  bool pool_built = false;       ///< bottom-up candidate pool exists
  /// One-thread team (evaluated after the ThreadCountGuard sets the
  /// width): the traversal kernels' bitmap writes then skip the locked
  /// RMW the shared-word layout otherwise requires. A fetch_or per
  /// visit is the one place the packed layout loses to byte arrays'
  /// plain stores, and on a serial team it buys nothing. (Pass-boundary
  /// bitmap maintenance is serial at every width; see publish_frontier.)
  const bool serial;

  GraftState(const BipartiteGraph& graph, Matching& matching,
             GraftWorkspace& workspace)
      : g(graph),
        mate_x(matching.mate_x()),
        mate_y(matching.mate_y()),
        ws(workspace),
        unvisited_y(graph.num_y()),
        serial(engine::serial_team()) {}

  /// x belongs to a tree in which no augmenting path has been found.
  /// The acquire pairs with update_pointers' stamp_release: a valid
  /// stamp implies root_x[x] holds the published root, never garbage.
  bool in_active_tree(vid_t x) const noexcept {
    const auto xi = static_cast<std::size_t>(x);
    if (!ws.root_stamp.valid_acquire(xi)) return false;
    const vid_t r = relaxed_load(ws.root_x[xi]);
    return !ws.leaf_stamp.valid(static_cast<std::size_t>(r));
  }
};

/// Algorithm 5: attach the (already claimed) Y vertex y as a child of x,
/// and either extend the frontier through y's mate or record an
/// augmenting path. `out` is the engine's thread-private out-queue
/// handle for the next frontier.
template <typename Out>
inline void update_pointers(GraftState& state, vid_t x, vid_t y, Out& out) {
  GraftWorkspace& ws = state.ws;
  const auto yi = static_cast<std::size_t>(y);
  ws.parent[yi] = x;  // y is claimed exactly once; plain store
  const vid_t root = relaxed_load(ws.root_x[static_cast<std::size_t>(x)]);
  relaxed_store(ws.root_y[yi], root);
  const vid_t mate = relaxed_load(state.mate_y[yi]);
  if (mate != kInvalidVertex) {
    const auto mi = static_cast<std::size_t>(mate);
    relaxed_store(ws.root_x[mi], root);
    ws.root_stamp.stamp_release(mi);  // publishes the root store above
    out.push(mate);
  } else {
    // Augmenting path discovered: root .. y. Benign race (paper
    // Sec. III-B): concurrent discoveries in one tree overwrite each
    // other; the last write wins and exactly one path survives. The
    // release stamp publishes whichever leaf value a valid stamp gates.
    relaxed_store(ws.leaf[static_cast<std::size_t>(root)], y);
    ws.leaf_stamp.stamp_release(static_cast<std::size_t>(root));
  }
}

/// Algorithm 4: top-down level. Scans the adjacency of every frontier
/// X vertex via the edge-balanced kernel (a hub's adjacency may be
/// split across threads; claims are atomic, so that is safe); claims
/// unvisited Y vertices atomically and tracks them in touched_y.
void top_down(GraftState& state, std::int64_t& edges,
              std::int64_t& newly_visited) {
  GraftWorkspace& ws = state.ws;
  const engine::TraversalCounters counters = engine::for_each_frontier_edge(
      engine::x_adjacency(state.g), ws.frontier.items(), ws.next, ws.touched_y,
      ws.partition,
      // The tree may have turned renewable after x was enqueued; such
      // frontier vertices must not keep growing it (Algorithm 4).
      [&](vid_t x) { return state.in_active_tree(x); },
      [&](vid_t x, vid_t y, auto& out, auto& track,
          engine::TraversalCounters& local) {
        const auto yi = static_cast<std::size_t>(y);
        if (!(state.serial ? ws.visited.claim_serial(yi)
                           : ws.visited.claim(yi))) {
          return;
        }
        ++local.visits;
        track.push(y);
        update_pointers(state, x, y, out);
      });
  edges += counters.edges;
  newly_visited += counters.visits;
}

/// Algorithm 6: bottom-up step over the Y vertices in `candidates`
/// (the candidate pool during BFS, or renewableY during grafting).
/// Each candidate claims itself into the first eligible tree found
/// among its neighbors; the item-granular kernel guarantees each y is
/// owned by exactly one thread, so its visited bit is set without a
/// claim. Candidates that did not attach land in `failed`. Only pool
/// scans end pool membership, so only they clear pool stamps
/// (`pool_scan`); the graft scan runs over renewableY and must leave
/// the stamps of entries still physically in the pool alone.
void bottom_up(GraftState& state, std::span<const vid_t> candidates,
               std::int64_t& edges, std::int64_t& newly_visited,
               FrontierQueue<vid_t>& failed, bool pool_scan) {
  GraftWorkspace& ws = state.ws;
  const engine::TraversalCounters counters =
      engine::for_each_unvisited_reverse(
          engine::y_adjacency(state.g), candidates, ws.next, failed,
          ws.touched_y, ws.partition,
          [&](vid_t y) {
            if (!ws.visited.test(static_cast<std::size_t>(y))) return false;
            if (pool_scan) ws.pool_stamp.clear(static_cast<std::size_t>(y));
            return true;
          },
          [&](vid_t y, vid_t x, auto& out, auto& track) {
            // One bit load replaces the x_join_time >= now compare plus
            // in_active_tree()'s first load: the bit is set only at
            // pass boundaries, for members of then-active trees, so it
            // rejects non-forest vertices with a single test.
            if (!ws.active_x.test(static_cast<std::size_t>(x))) return false;
            // The bit cannot see mid-pass tree deaths; attaching y to a
            // tree whose augmenting path was already found wastes it
            // for the phase, so trees that died since the boundary pay
            // the root/leaf load chain here, on bit-positive x only.
            // Racing a concurrent leaf discovery is the same benign
            // race the leaf store itself documents.
            const vid_t root =
                relaxed_load(ws.root_x[static_cast<std::size_t>(x)]);
            if (ws.leaf_stamp.valid(static_cast<std::size_t>(root))) {
              return false;
            }
            if (state.serial) {
              ws.visited.set_serial(static_cast<std::size_t>(y));
            } else {
              ws.visited.set(static_cast<std::size_t>(y));
            }
            if (pool_scan) ws.pool_stamp.clear(static_cast<std::size_t>(y));
            track.push(y);
            update_pointers(state, x, y, out);
            return true;  // stop exploring y's neighbors once attached
          });
  edges += counters.edges;
  newly_visited += counters.visits;
}

/// Word-level bottom-up step (RunConfig::bottom_up_kernel == kWord):
/// one sweep of the visited bitmap's complement per level, 64
/// candidates per word, winners committed with a single word-granular
/// claim (engine/word_kernels.hpp). No candidate pool exists in this
/// arm -- the complement IS the candidate list -- so the low-yield ban
/// compares against the zero bits actually examined and the pool
/// bookkeeping (build, refill, stamp audit) is skipped entirely
/// (state.pool_built stays false). The eligibility test and the attach
/// body are the bit path's, verbatim: active_x bit first, then the
/// root/leaf confirmation on bit-positive x only, with the same
/// documented benign race against mid-pass tree deaths.
engine::WordScanCounters bottom_up_words(GraftState& state, std::int64_t& edges,
                                         std::int64_t& newly_visited) {
  GraftWorkspace& ws = state.ws;
  const engine::WordScanCounters counters = engine::for_each_unvisited_word(
      engine::y_adjacency(state.g), ws.visited,
      static_cast<std::int64_t>(state.g.num_y()), ws.next, ws.touched_y,
      [&](vid_t /*y*/, vid_t x) {
        if (!ws.active_x.test(static_cast<std::size_t>(x))) return false;
        const vid_t root = relaxed_load(ws.root_x[static_cast<std::size_t>(x)]);
        return !ws.leaf_stamp.valid(static_cast<std::size_t>(root));
      },
      [&](vid_t y, vid_t x, auto& out) { update_pointers(state, x, y, out); });
  edges += counters.traversal.edges;
  newly_visited += counters.traversal.visits;
  return counters;
}

/// Install the freshly built frontier for the next pass: when bottom-up
/// can run, set every member's eligible-parent bit. Bits are published
/// only here -- at pass boundaries -- which is what keeps the search
/// level-synchronous (vertices joining during a pass are not eligible
/// parents within it). No X-side membership list is kept: the
/// |activeX| statistic is derived from the Y-side classification and
/// the surviving roots (every non-root member of an active tree is the
/// mate of exactly one of its Y vertices).
///
/// Runs on the calling thread at every team width, like the graft and
/// rebuild frees: the bitmap is 1/64th the size of the frontier's
/// vertex range, so a team setting random bits in it with locked RMWs
/// mostly bounces shared cache lines between cores (measured 67 us per
/// publish at width 3 against 8.8 us serially, ~4.7k members). The
/// next region's fork orders these plain stores before any reader.
void publish_frontier(GraftState& state, bool mark_active) {
  if (!mark_active) return;
  GraftWorkspace& ws = state.ws;
  for (const vid_t x : ws.frontier.items()) {
    ws.active_x.set_serial(static_cast<std::size_t>(x));
  }
}

/// Re-insert freed Y vertices into the bottom-up candidate pool. Under
/// the stamp <=> membership invariant an unstamped vertex is guaranteed
/// physically absent, so appending it cannot create a duplicate (which
/// would hand one y to two threads in the item-granular kernel). Items
/// are distinct and each is handled by exactly one thread, so the
/// check-then-stamp needs no atomics.
void refill_pool(GraftState& state, std::span<const vid_t> freed,
                 RunStats& stats) {
  GraftWorkspace& ws = state.ws;
  const auto before = static_cast<std::int64_t>(ws.pool.size());
  engine::for_each_item(freed, ws.pool, [&](vid_t y, auto& handle) {
    const auto yi = static_cast<std::size_t>(y);
    if (ws.pool_stamp.valid(yi)) return;
    ws.pool_stamp.stamp(yi);
    handle.push(y);
  });
  stats.bookkeeping.pool_reinserts +=
      static_cast<std::int64_t>(ws.pool.size()) - before;
}

// O(n + m) audit of the alternating-forest invariants (RunConfig::
// check_invariants). Called at the end of Step 1, when the BFS forest is
// complete and augmentation has not yet modified the matching. Under
// the epoch scheme, freed or never-visited slots legitimately hold
// stale values, so every check gates on the validity bit/stamp exactly
// the way the algorithm does -- and the audit additionally proves the
// epoch bookkeeping itself (pool stamps match the pool contents, every
// unvisited Y is a pool candidate, eligible-parent bits stay inside
// the forest).
void assert_forest_invariants(const GraftState& state) {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("ms_bfs_graft invariant violated: " + what);
  };
  const BipartiteGraph& g = state.g;
  const GraftWorkspace& ws = state.ws;
  const vid_t nx = g.num_x();
  const vid_t ny = g.num_y();

  for (vid_t y = 0; y < ny; ++y) {
    const auto yi = static_cast<std::size_t>(y);
    if (!ws.visited.test(yi)) {
      // Stale parent/root values are fine here (gated by the bit), but
      // every unvisited Y must be a bottom-up candidate.
      if (state.pool_built && !ws.pool_stamp.valid(yi)) {
        fail("unvisited Y vertex missing from the candidate pool");
      }
      continue;
    }
    const vid_t x = ws.parent[yi];
    if (x == kInvalidVertex) fail("visited Y vertex without parent");
    if (!g.has_edge(x, y)) fail("parent pointer is not an edge");
    const vid_t root = ws.root_y[yi];
    if (root == kInvalidVertex) fail("visited Y vertex without root");
    const auto ri = static_cast<std::size_t>(root);
    if (!ws.root_stamp.valid(ri) || ws.root_x[ri] != root) {
      fail("root of a visited Y vertex is not self-rooted");
    }
    if (state.mate_x[ri] != kInvalidVertex && !ws.leaf_stamp.valid(ri)) {
      fail("active tree rooted at a matched vertex");
    }
    const auto xi = static_cast<std::size_t>(x);
    if (!ws.root_stamp.valid(xi) || ws.root_x[xi] != root) {
      fail("parent and child disagree on the tree root");
    }
    // Alternation: a non-root parent entered the tree through its mate.
    if (x != root) {
      const vid_t x_mate = state.mate_x[xi];
      if (x_mate == kInvalidVertex) {
        fail("non-root unmatched X vertex inside a tree");
      }
      if (!ws.visited.test(static_cast<std::size_t>(x_mate))) {
        fail("tree X vertex whose mate is not in the forest");
      }
      if (ws.root_y[static_cast<std::size_t>(x_mate)] != root) {
        fail("X vertex and its mate lie in different trees");
      }
    }
    // The matched partner of y (if any) joined the same tree.
    const vid_t mate = state.mate_y[yi];
    if (mate != kInvalidVertex) {
      const auto mi = static_cast<std::size_t>(mate);
      if (!ws.root_stamp.valid(mi) || ws.root_x[mi] != root) {
        fail("matched pair split across trees");
      }
    }
  }

  if (state.pool_built) {
    // stamp <=> physical membership, both directions at once: together
    // with the superset check above, equal counts prove every stamped
    // vertex sits in the pool exactly once and the pool holds no
    // unstamped entry.
    std::int64_t stamped = 0;
    for (vid_t y = 0; y < ny; ++y) {
      stamped += ws.pool_stamp.valid(static_cast<std::size_t>(y)) ? 1 : 0;
    }
    if (stamped != static_cast<std::int64_t>(ws.pool.size())) {
      fail("candidate-pool stamps disagree with the pool contents");
    }
  }

  // Leaf pointers of unmatched roots mark genuine augmenting paths.
  for (vid_t x = 0; x < nx; ++x) {
    const auto xi = static_cast<std::size_t>(x);
    if (ws.active_x.test(xi) && !ws.root_stamp.valid(xi)) {
      fail("eligible-parent bit on an X vertex outside the forest");
    }
    if (state.mate_x[xi] != kInvalidVertex || !ws.root_stamp.valid(xi) ||
        ws.root_x[xi] != x) {
      continue;  // not an unmatched root this phase
    }
    if (!ws.leaf_stamp.valid(xi)) continue;
    const vid_t leaf = ws.leaf[xi];
    const auto li = static_cast<std::size_t>(leaf);
    if (!ws.visited.test(li)) fail("leaf pointer to an unvisited Y vertex");
    if (state.mate_y[li] != kInvalidVertex) fail("leaf Y vertex is matched");
    if (ws.root_y[li] != x) fail("leaf belongs to a different tree");
    // Walk the augmenting path back to the root; it must alternate and
    // terminate without cycles.
    vid_t y = leaf;
    std::int64_t steps = 0;
    while (true) {
      const vid_t px = ws.parent[static_cast<std::size_t>(y)];
      if (px == kInvalidVertex) fail("augmenting path breaks at parent");
      if (px == x) break;
      y = state.mate_x[static_cast<std::size_t>(px)];
      if (y == kInvalidVertex) fail("augmenting path hits unmatched X");
      if (++steps > state.g.num_y()) fail("augmenting path cycles");
    }
  }
}

}  // namespace

RunStats ms_bfs_graft(SessionContext& session, const BipartiteGraph& g,
                      Matching& matching, const RunConfig& config,
                      GraftWorkspace& workspace) {
  if (!(config.alpha > 0.0) || !std::isfinite(config.alpha)) {
    // A NaN alpha fails the comparison; +inf passes it but collapses
    // every direction/graft threshold to zero, silently forcing
    // bottom-up -- reject both the same way.
    throw std::invalid_argument("ms_bfs_graft: alpha must be positive finite");
  }
  const SessionScope scope(session);
  const ThreadCountGuard thread_guard(
      solve_width(g.num_edges(), config.threads));

  RunStats stats;
  engine::StatsSink sink(
      session, stats,
      config.tree_grafting
          ? (config.direction_optimizing ? "MS-BFS-Graft" : "MS-BFS+Graft")
          : (config.direction_optimizing ? "MS-BFS+DirOpt" : "MS-BFS"),
      matching, /*parallel=*/true);

  const vid_t nx = g.num_x();
  const vid_t ny = g.num_y();
  GraftWorkspace& ws = workspace;
  const bool warm = ws.prepare(nx, ny);
  obs::emit_instant(obs::names::kWorkspacePrepared, warm ? 1 : 0,
                    ws.prepared_runs);
  stats.bookkeeping.collected = true;
  stats.bookkeeping.workspace_warm = warm;

  GraftState state(g, matching, ws);
  stats.direction.collected = true;
  stats.direction.kernel = config.bottom_up_kernel;
  obs::emit_instant(obs::names::kBottomUpKernel,
                    static_cast<std::int64_t>(config.bottom_up_kernel));
  // The eligible-parent bits feed the bottom-up kernel, which runs for
  // direction-optimized BFS levels AND for the graft scan; only the
  // plain MS-BFS baseline can skip maintaining them.
  const bool mark_active = config.direction_optimizing || config.tree_grafting;

  // Initial frontier: every unmatched X vertex roots its own tree. The
  // predicate's writes target the tested slot only, so the parallel
  // collect is race-free; the roots list doubles as the maintained
  // unmatched-roots set.
  engine::collect_if(nx, ws.frontier, [&](vid_t x) {
    const auto xi = static_cast<std::size_t>(x);
    if (state.mate_x[xi] != kInvalidVertex) return false;
    ws.root_x[xi] = x;
    ws.root_stamp.stamp(xi);
    return true;
  });
  ws.roots.append(ws.frontier.items());
  publish_frontier(state, mark_active);

  while (true) {
    ++stats.phases;
    obs::emit_begin(obs::names::kPhase, stats.phases);
    PhaseStats phase_row;
    phase_row.phase = stats.phases;
    const Timer phase_timer;
    const std::int64_t phase_edges_before = stats.edges_traversed;

    // ---- Step 1: grow the alternating BFS forest until F is empty.
    //
    // Direction choice follows the paper (top-down when |F| <
    // numUnvisitedY / alpha), with two refinements that bound the cost
    // of bottom-up on graphs with a large permanently-unreachable Y
    // mass: (a) each bottom-up level rescans only the pool survivors of
    // the previous scan (the pool stays a superset of the unvisited
    // set); (b) once a bottom-up level attaches almost nothing, the
    // leftover candidates are overwhelmingly unreachable this phase, so
    // bottom-up is disabled for the rest of the phase.
    std::int64_t level = 0;
    bool bottom_up_banned = false;
    bool last_bottom_up = false;  // every phase starts top-down
    while (!ws.frontier.empty()) {
      const auto frontier_size = static_cast<std::int64_t>(ws.frontier.size());
      const bool use_bottom_up =
          config.direction_optimizing && !bottom_up_banned &&
          engine::prefer_bottom_up(frontier_size, state.unvisited_y,
                                   config.alpha);
      stats.direction.decisions += config.direction_optimizing ? 1 : 0;
      stats.direction.bottom_up_levels += use_bottom_up ? 1 : 0;
      obs::emit_counter(obs::names::kFrontier, frontier_size,
                        use_bottom_up ? 1 : 0);
      if (use_bottom_up != last_bottom_up) {
        ++stats.direction.switches;
        if (level > 0) {
          obs::emit_instant(obs::names::kDirectionSwitch, level,
                            use_bottom_up ? 1 : 0);
        }
      }
      last_bottom_up = use_bottom_up;

      if (config.collect_frontier_trace) {
        stats.frontier_trace.push_back(
            {stats.phases, level, frontier_size, use_bottom_up});
      }

      std::int64_t newly_visited = 0;
      ws.next.clear();
      phase_row.bottom_up_levels += use_bottom_up;
      if (use_bottom_up && config.bottom_up_kernel == BottomUpKernel::kWord) {
        // Word arm: one ctz sweep of the visited complement, no pool.
        const auto lap = sink.scoped(Step::kBottomUp);
        const engine::WordScanCounters word =
            bottom_up_words(state, stats.edges_traversed, newly_visited);
        stats.direction.word_commits += word.commits;
        stats.direction.word_fallbacks += word.fallbacks;
        // Same low-yield ban as the pool path, against the candidates
        // this sweep actually examined.
        if (8 * newly_visited < word.candidates) bottom_up_banned = true;
      } else if (use_bottom_up) {
        const auto lap = sink.scoped(Step::kBottomUp);
        if (!state.pool_built) {
          // O(ny) candidate-pool build from the visited bitmap's
          // complement (word-level ctz compaction), run lazily: once
          // here and again only after a rebuild dropped the pool.
          // Between builds the pool is maintained incrementally.
          ws.pool.clear();
          ws.pool_stamp.bump();
          engine::for_each_zero_bit(
              ws.visited.words(), ny, ws.pool,
              [&](std::int64_t y, auto& handle) {
                ws.pool_stamp.stamp(static_cast<std::size_t>(y));
                handle.push(static_cast<vid_t>(y));
              });
          state.pool_built = true;
          ++stats.bookkeeping.pool_builds;
          obs::emit_instant(obs::names::kPoolBuild,
                            static_cast<std::int64_t>(ws.pool.size()));
        }
        ws.pool_failed.clear();
        bottom_up(state, ws.pool.items(), stats.edges_traversed,
                  newly_visited, ws.pool_failed, /*pool_scan=*/true);
        // Low yield: the survivors are (almost all) unreachable this
        // phase; stop paying to rescan them.
        if (8 * newly_visited < static_cast<std::int64_t>(ws.pool.size())) {
          bottom_up_banned = true;
        }
        ws.pool.swap(ws.pool_failed);
      } else {
        const auto lap = sink.scoped(Step::kTopDown);
        top_down(state, stats.edges_traversed, newly_visited);
      }
      state.unvisited_y -= newly_visited;
      ws.frontier.clear();
      ws.frontier.swap(ws.next);
      publish_frontier(state, mark_active);
      ++level;
    }
    phase_row.levels = level;

    if (config.check_invariants) assert_forest_invariants(state);

    // ---- Step 2: augment along every renewable tree's unique path.
    // Renewable roots are exactly the roots-list members whose leaf was
    // stamped this phase (the list holds only still-unmatched roots,
    // and an unmatched root with a valid leaf always augmented the
    // phase the leaf was set), collected in O(|roots|), not O(nx).
    {
      const auto lap = sink.scoped(Step::kStatistics);
      ws.renewable_roots.clear();
      ws.roots_scratch.clear();
      engine::for_each_item(
          std::span<const vid_t>(ws.roots.items()), ws.renewable_roots,
          ws.roots_scratch, [&](vid_t x, auto& renewable_out, auto& keep_out) {
            if (ws.leaf_stamp.valid(static_cast<std::size_t>(x))) {
              renewable_out.push(x);
            } else {
              keep_out.push(x);
            }
          });
      // Augmented roots become matched and never unmatched again, so
      // the survivors list is next phase's roots list.
      ws.roots.swap(ws.roots_scratch);
    }

    sink.start(Step::kAugment);
    {
      const auto roots = ws.renewable_roots.items();
      const auto count = static_cast<std::int64_t>(roots.size());
      std::int64_t path_edges_total = 0;
      std::vector<std::int64_t> path_lengths;
      if (config.collect_path_histogram) {
        path_lengths.assign(static_cast<std::size_t>(count), 0);
      }
      // Paths live in vertex-disjoint trees: flip them in parallel.
      parallel_region([&] {
        std::int64_t local_path_edges = 0;
#pragma omp for schedule(dynamic, 8)
        for (std::int64_t i = 0; i < count; ++i) {
          const vid_t r = roots[static_cast<std::size_t>(i)];
          vid_t y = ws.leaf[static_cast<std::size_t>(r)];
          std::int64_t path_edges = 0;
          while (y != kInvalidVertex) {
            const vid_t x = ws.parent[static_cast<std::size_t>(y)];
            const vid_t next_y = state.mate_x[static_cast<std::size_t>(x)];
            state.mate_x[static_cast<std::size_t>(x)] = y;
            state.mate_y[static_cast<std::size_t>(y)] = x;
            ++path_edges;
            if (next_y != kInvalidVertex) ++path_edges;
            y = next_y;
          }
          local_path_edges += path_edges;
          if (config.collect_path_histogram) {
            path_lengths[static_cast<std::size_t>(i)] = path_edges;
          }
        }
        fetch_add_relaxed(path_edges_total, local_path_edges);
      });
      stats.augmentations += count;
      stats.total_path_edges += path_edges_total;
      phase_row.augmentations = count;
      for (const std::int64_t length : path_lengths) {
        ++stats.path_length_histogram[length];
      }
      sink.stop(Step::kAugment);

      if (count == 0) {
        if (config.collect_phase_stats) {
          phase_row.edges = stats.edges_traversed - phase_edges_before;
          phase_row.seconds = phase_timer.elapsed();
          stats.phase_stats.push_back(phase_row);
        }
        obs::emit_end(obs::names::kPhase, stats.phases, 0);
        break;  // no augmenting path in this phase: maximum
      }
    }

    // ---- Step 3: rebuild the frontier (Algorithm 7).
    // Statistics (lines 2-4): classify the forest's Y vertices into
    // renewable (tree found a path) and active, and count active X
    // vertices -- sweeping carry + touched lists (exactly the forest)
    // instead of the full vertex ranges.
    std::int64_t active_x_count = 0;
    {
      const auto lap = sink.scoped(Step::kStatistics);
      ws.renewable_y.clear();
      ws.active_y.clear();
      const auto classify = [&](vid_t y, auto& renewable_out,
                                auto& active_out) {
        const vid_t r = ws.root_y[static_cast<std::size_t>(y)];
        if (ws.leaf_stamp.valid(static_cast<std::size_t>(r))) {
          renewable_out.push(y);
        } else {
          active_out.push(y);
        }
      };
      engine::for_each_item(std::span<const vid_t>(ws.carry_y.items()),
                            ws.renewable_y, ws.active_y, classify);
      engine::for_each_item(std::span<const vid_t>(ws.touched_y.items()),
                            ws.renewable_y, ws.active_y, classify);
      stats.bookkeeping.classified_y +=
          static_cast<std::int64_t>(ws.carry_y.size() + ws.touched_y.size());

      // |activeX| needs no X-side sweep at all: an active tree is its
      // root plus the mates of its Y members, the mates are distinct
      // (they come from a matching), and a tree is active iff its Y
      // members classified active -- so the count is the surviving
      // roots (the list already dropped this phase's renewable roots)
      // plus the active Y vertices.
      active_x_count =
          static_cast<std::int64_t>(ws.roots.size() + ws.active_y.size());
      stats.bookkeeping.counted_x += active_x_count;
    }

    sink.start(Step::kGraft);
    // Free the renewable Y vertices so they can join other trees
    // (Algorithm 3 lines 16-17 / Algorithm 7 lines 6-7) and dismantle
    // the dead trees' eligible-parent bits: every non-root member is
    // some renewable Y's post-augmentation mate, and the roots are in
    // renewable_roots. Serial at every width, for the reason
    // publish_frontier gives.
    for (const vid_t y : ws.renewable_y.items()) {
      const auto yi = static_cast<std::size_t>(y);
      ws.visited.clear_serial(yi);
      if (mark_active) {
        const vid_t m = state.mate_y[yi];
        if (m != kInvalidVertex) {
          ws.active_x.clear_serial(static_cast<std::size_t>(m));
        }
      }
    }
    if (mark_active) {
      for (const vid_t r : ws.renewable_roots.items()) {
        ws.active_x.clear_serial(static_cast<std::size_t>(r));
      }
    }
    state.unvisited_y += static_cast<std::int64_t>(ws.renewable_y.size());

    const bool graft_profitable =
        config.tree_grafting &&
        static_cast<double>(active_x_count) >
            static_cast<double>(ws.renewable_y.size()) / config.alpha;
    obs::emit_instant(
        graft_profitable ? obs::names::kGraftChosen : obs::names::kRebuildChosen,
        active_x_count, static_cast<std::int64_t>(ws.renewable_y.size()));
    phase_row.active_x = active_x_count;
    phase_row.renewable_y = static_cast<std::int64_t>(ws.renewable_y.size());
    phase_row.grafted = graft_profitable;

    ws.frontier.clear();
    ws.next.clear();
    if (graft_profitable) {
      // Graft: carry the surviving active trees' bookkeeping into the
      // next phase, then re-attach renewable Y vertices (and their
      // mates) onto active trees; the attached mates form the next
      // frontier. Unattached renewables go back into the candidate
      // pool (they are unvisited again).
      ws.carry_y.swap(ws.active_y);
      ws.touched_y.clear();
      std::int64_t newly_visited = 0;
      ws.pool_failed.clear();  // scratch: the graft's failed list
      bottom_up(state, ws.renewable_y.items(), stats.edges_traversed,
                newly_visited, ws.pool_failed, /*pool_scan=*/false);
      state.unvisited_y -= newly_visited;
      if (state.pool_built) refill_pool(state, ws.pool_failed.items(), stats);
      ws.frontier.swap(ws.next);
      publish_frontier(state, mark_active);
    } else {
      // Rebuild: destroy all trees and restart from the unmatched
      // X vertices (Algorithm 7 lines 10-15). Freeing the active Y
      // vertices plus two epoch bumps IS the teardown -- no O(nx)
      // root_x clear. Serial at every width, like the frees above.
      for (const vid_t y : ws.active_y.items()) {
        ws.visited.clear_serial(static_cast<std::size_t>(y));
      }
      state.unvisited_y += static_cast<std::int64_t>(ws.active_y.size());
      // A rebuild frees the WHOLE forest's Y set. Refilling the pool
      // with it would cost O(|forest|) per rebuild for candidates a
      // later bottom-up pass may never scan (rebuild-heavy instances
      // tend never to switch direction again). Drop the pool instead:
      // if bottom-up does run again it rebuilds from the visited
      // bitmap's complement, and that build's pool_stamp.bump()
      // retires every stale membership stamp in O(1).
      state.pool_built = false;
      ws.root_stamp.bump();
      ws.leaf_stamp.bump();
      stats.bookkeeping.epoch_bumps += 2;
      if (mark_active) ws.active_x.clear_all();
      ws.carry_y.clear();
      ws.touched_y.clear();
      // Re-root the surviving unmatched roots: O(|roots|), not O(nx).
      engine::for_each_item(std::span<const vid_t>(ws.roots.items()),
                            ws.frontier, [&](vid_t x, auto& handle) {
                              const auto xi = static_cast<std::size_t>(x);
                              ws.root_x[xi] = x;
                              ws.root_stamp.stamp(xi);
                              handle.push(x);
                            });
      publish_frontier(state, mark_active);
    }
    sink.stop(Step::kGraft);

    if (config.collect_phase_stats) {
      phase_row.edges = stats.edges_traversed - phase_edges_before;
      phase_row.seconds = phase_timer.elapsed();
      stats.phase_stats.push_back(phase_row);
    }
    obs::emit_end(obs::names::kPhase, stats.phases, phase_row.augmentations);
  }

  sink.finish(matching);
  return stats;
}

RunStats ms_bfs_graft(SessionContext& session, const BipartiteGraph& g,
                      Matching& matching, const RunConfig& config) {
  // Lease a workspace from the session's pool: repeated runs (bench
  // min-of-runs, the diff corpus, back-to-back requests on a server
  // session) reuse warm, first-touched arrays, concurrent sessions
  // never share state, and -- unlike the thread_local this replaced --
  // the workspace is handed back when the run ends instead of staying
  // pinned to the host thread for the process lifetime.
  WorkspaceLease lease(session.workspaces());
  RunStats stats = ms_bfs_graft(session, g, matching, config, lease.get());
  lease.release();
  return stats;
}

RunStats ms_bfs_graft(const BipartiteGraph& g, Matching& matching,
                      const RunConfig& config, GraftWorkspace& workspace) {
  return ms_bfs_graft(ambient_session(), g, matching, config, workspace);
}

RunStats ms_bfs_graft(const BipartiteGraph& g, Matching& matching,
                      const RunConfig& config) {
  return ms_bfs_graft(ambient_session(), g, matching, config);
}

RunStats ms_bfs(SessionContext& session, const BipartiteGraph& g,
                Matching& matching, RunConfig config) {
  config.direction_optimizing = false;
  config.tree_grafting = false;
  return ms_bfs_graft(session, g, matching, config);
}

RunStats ms_bfs(const BipartiteGraph& g, Matching& matching,
                RunConfig config) {
  return ms_bfs(ambient_session(), g, matching, std::move(config));
}

}  // namespace graftmatch
