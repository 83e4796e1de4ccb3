// Incremental maximum matching under edge churn.
//
// DynamicMatcher owns a GraphOverlay (CSR base + delta adjacency +
// tombstones) and maintains a MAXIMUM matching across add_edges() /
// remove_edges() batches by localized re-augmentation instead of
// re-solving from scratch:
//
//  * Deletions. Removing an unmatched edge cannot break maximality
//    (shrinking the edge set never creates augmenting paths). Removing
//    k matched edges frees k endpoint pairs; every augmenting path of
//    the shrunken graph w.r.t. the SHRUNKEN matching must end at a
//    newly-freed vertex -- a path avoiding all of them would alternate
//    identically w.r.t. the old matching and contradict its maximality.
//    So repair starts as one alternating BFS per newly-freed X and per
//    newly-freed Y. If those searches recover p paths, p == 0 proves
//    maximality directly (the matching never changed, and every root
//    the theorem points at was searched and failed -- failed searches
//    persist across other augmentations), and p == k proves it by
//    counting (|M| is back at the pre-batch value, an upper bound on
//    the shrunken maximum). For 0 < p < k the theorem no longer
//    applies to the REPAIRED matching: a repair path can terminate at
//    the newly-freed endpoint of a different deficiency path, leaving
//    an augmenting path whose endpoints are both old-free -- invisible
//    from every freed root (the differential battery caught exactly
//    this). That remainder falls back to the insertion sweep below.
//
//  * Insertions. A new augmenting path must cross an inserted edge,
//    but it may START anywhere: an inserted edge with both endpoints
//    matched can sit mid-path (x0 - y1 = x1 - NEW - y2 = x2 - y3 with
//    x0, y3 free), so seeding only from the new edges' endpoints would
//    MISS paths and silently surrender maximality. The matcher first
//    fast-path-matches inserted edges whose endpoints are both free,
//    then runs multi-source alternating sweeps from EVERY free X until
//    a sweep finds nothing -- the empty sweep is the maximality proof.
//    This is one MS-BFS phase shape, without the initializer and from
//    a matching at most |batch| below maximum, which is what makes it
//    cheaper than a full re-solve for small batches (bench_churn
//    measures the crossover).
//
//  * Failed-tree retention. Searches share visited stamps across
//    consecutive FAILURES: while the matching is unchanged, no
//    augmenting path (from any root, either side) can pass through a
//    failed alternating tree -- its X vertices have every neighbor
//    inside the tree and its Y vertices are matched with mates inside
//    it, so a path's last tree vertex could not leave (the same
//    argument ss_bfs relies on). Later searches prune at the retained
//    frontier, bounding a whole failure-dominated sweep round by one
//    O(m) pass instead of O(freeX * m); stamps are re-bumped only
//    after a successful augmentation invalidates the forest. On
//    heavily deficient graphs (web crawls, RMAT) this is the
//    difference between incremental repair beating and losing to the
//    per-batch full re-solve.
//
// Correctness never depends on the heuristics. Two gates are purely
// about cost:
//  * Staleness: when the churn volume since the last full solve
//    crosses `staleness_delta_fraction` of the graph, or
//    `staleness_failure_streak` consecutive searches found no path,
//    the matcher compacts and re-solves through the engine registry
//    (RunConfig surface included: solver, initializer, threads,
//    reduce) -- the same entry point is the oracle the
//    differential tests compare against.
//  * Compaction: when the overlay's divergence crosses
//    `compact_fraction` of the base edges, it is folded back into a
//    canonical CSR (the matching is untouched; the live edge set does
//    not change).
//
// Session wiring: every public mutator binds the owning SessionContext
// as ambient for its duration, so obs spans (dynamic.apply /
// dynamic.reaugment / dynamic.compact) land in the session's trace,
// full re-solves draw workspace leases from the session's pool, and
// stress-build yield jitter follows the session's override. One
// matcher is single-owner like a solve; put concurrent matchers in
// separate sessions (tests/stress/test_dynamic_stress.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/dynamic/overlay.hpp"
#include "graftmatch/graph/edge_list.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/epoch_array.hpp"

namespace graftmatch::dynamic {

struct DynamicConfig {
  /// Registry keys for the initial solve and staleness re-solves.
  std::string solver = "graft";
  std::string initializer = "rgreedy";
  /// RunConfig for those solves (threads, seed, reduce, ...).
  RunConfig run;

  /// Fold the overlay back into a CSR when cost() exceeds this fraction
  /// of the base edges. <= 0 compacts after every batch.
  double compact_fraction = 0.25;

  /// Full re-solve when churn since the last solve exceeds this
  /// fraction of the graph's edges at that solve.
  double staleness_delta_fraction = 0.5;
  /// Full re-solve after this many consecutive failed augmenting-path
  /// searches (a cost heuristic; failed searches are normal and leave
  /// the matching maximum regardless). <= 0 disables the streak gate.
  int staleness_failure_streak = 0;

  /// Audit after every batch: matching validity plus the Koenig
  /// maximality certificate on the materialized graph. O(n + m) per
  /// batch -- for tests and debugging.
  bool check_invariants = false;
};

class DynamicMatcher {
 public:
  /// Takes the initial graph, solves it to maximum through the engine
  /// registry under `session`, and is ready for churn.
  DynamicMatcher(SessionContext& session, BipartiteGraph base,
                 DynamicConfig config = {});

  vid_t num_x() const noexcept { return overlay_.num_x(); }
  vid_t num_y() const noexcept { return overlay_.num_y(); }
  std::int64_t live_edges() const noexcept { return overlay_.live_edges(); }

  const Matching& matching() const noexcept { return matching_; }
  std::int64_t cardinality() const noexcept { return cardinality_; }
  const DynamicConfig& config() const noexcept { return config_; }
  const GraphOverlay& overlay() const noexcept { return overlay_; }

  /// Insert a batch of edges (duplicates and already-present edges are
  /// skipped) and restore maximality. Returns the number of edges
  /// actually inserted. Throws std::out_of_range on bad endpoints.
  std::int64_t add_edges(std::span<const Edge> batch);

  /// Erase a batch of edges (absent edges are skipped) and restore
  /// maximality. Returns the number of edges actually erased.
  std::int64_t remove_edges(std::span<const Edge> batch);

  /// Snapshot the live graph as a CSR (the oracle input).
  BipartiteGraph materialize() const { return overlay_.materialize(); }

  /// Force a compaction now, regardless of the payoff gate.
  void compact();

  /// Force a full re-solve now (compacts first), regardless of the
  /// staleness gates.
  void resolve();

  /// Lifetime-cumulative stats: algorithm "dynamic+<solver>", the
  /// current cardinality, the width of the last full solve, and the
  /// `dynamic` counter block (strict-JSON clean through run_stats_json).
  RunStats stats() const;

 private:
  void bind_and_apply(std::span<const Edge> batch, bool insert);
  /// One alternating BFS from a free X (or free Y) root; applies the
  /// augmenting path when found. Returns true on success.
  // `fresh_marks` bumps the visited epochs before the search; pass
  // false to retain the failed trees of previous searches (sound only
  // while the matching is unchanged since those failures -- see the
  // failed-tree-retention note in the class comment).
  bool augment_from_x(vid_t root, bool fresh_marks = true);
  bool augment_from_y(vid_t root, bool fresh_marks = true);
  /// Repeated all-free-X sweeps until one finds nothing.
  void sweep_to_maximum();
  void note_search(bool found_path);
  bool staleness_tripped() const;
  void full_resolve();
  void maybe_compact();
  void audit() const;

  SessionContext* session_;
  DynamicConfig config_;
  GraphOverlay overlay_;
  Matching matching_;
  std::int64_t cardinality_ = 0;

  /// Churn volume since the last full solve, and the live-edge count at
  /// that solve (the staleness denominators).
  std::int64_t churn_since_resolve_ = 0;
  std::int64_t edges_at_resolve_ = 0;
  int failure_streak_ = 0;
  /// Width of the last full solve (its RunStats::threads_used).
  int solve_threads_ = 1;

  /// Serial-BFS scratch, epoch-invalidated per search (no O(n) clear).
  EpochStamps visited_x_;
  EpochStamps visited_y_;
  std::vector<vid_t> parent_y_;  ///< Y -> X that discovered it (X roots)
  std::vector<vid_t> parent_x_;  ///< X -> Y that discovered it (Y roots)
  std::vector<vid_t> queue_;

  DynamicCounters counters_;
};

}  // namespace graftmatch::dynamic
