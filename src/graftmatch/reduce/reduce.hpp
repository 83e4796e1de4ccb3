// Kernelization pre-pass: shrink a bipartite graph with matching-number
// preserving reductions before handing it to a solver.
//
// The reductions are classic (Karp--Sipser style), applied to exhaustion
// in rounds:
//   * degree-0: an isolated vertex is in no matching; drop it.
//   * degree-1 (pendant): if x has exactly one live neighbor y, some
//     maximum matching contains (x, y); force the match and remove both.
// A reconstruction log records every forced match so that ANY maximum
// matching of the kernel maps back to a maximum matching of the
// original graph (see reconstruct_matching).
//
// Determinism: degree initialization runs in parallel, but every rule
// application happens serially in candidate order, so the kernel, the
// log, and every counter are identical for every thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"

namespace graftmatch::reduce {

/// One entry of the reconstruction log: pendant x force-matched to its
/// only live neighbor y (both original ids), in application order.
struct Op {
  vid_t x = kInvalidVertex;
  vid_t y = kInvalidVertex;

  friend bool operator==(const Op&, const Op&) = default;
};

/// Result of reduce_graph: the kernel, the maps from kernel ids back to
/// original ids, and the log needed to lift a kernel matching.
struct Reduction {
  ReduceMode mode = ReduceMode::kNone;
  vid_t orig_nx = 0;
  vid_t orig_ny = 0;

  /// True when the kernel IS the original graph: either no rule fired
  /// (no op, no isolated X), or the rules removed less
  /// than 1/8 of both edges and vertices, in which case the log is
  /// discarded because the O(n + m) compaction would cost more than
  /// the slightly smaller kernel saves. `kernel`, the id maps, and
  /// `ops` are left EMPTY so an irreducible graph pays no copy; use
  /// solve_graph() to pick the graph a solver should run on, and note
  /// any degree-0 Y vertices stay (they cannot affect a matching).
  /// kNone reductions are not flagged: they keep the documented
  /// verbatim-copy behavior.
  bool identity = false;

  /// The compacted kernel; empty when `identity` is set.
  BipartiteGraph kernel;

  /// kernel X id -> original X id (ascending in original id).
  std::vector<vid_t> kernel_x_to_orig;
  /// kernel Y id -> original Y id (ascending in original id).
  std::vector<vid_t> kernel_y_to_orig;

  /// Reconstruction log in application order.
  std::vector<Op> ops;

  /// Counters for RunStats::reduce (reconstruct_seconds is stamped by
  /// the engine driver, everything else here).
  ReduceCounters stats;
};

/// Run the reduction pipeline for `mode` and compact the remainder into
/// a fresh CSR kernel (renumbered, isolated Y vertices dropped).
/// kNone returns a verbatim copy with identity maps and an empty log.
/// Emits obs spans (reduce, reduce.round, reduce.compact) when a trace
/// run is active. Parallel phases honor the ambient OpenMP thread
/// count; wrap in ThreadCountGuard to pin it.
Reduction reduce_graph(const BipartiteGraph& g, ReduceMode mode);

/// The graph a solver should run on after `reduction`: the compacted
/// kernel, or `original` itself for an identity reduction (whose
/// kernel member is deliberately left empty).
inline const BipartiteGraph& solve_graph(const Reduction& reduction,
                                         const BipartiteGraph& original) {
  return reduction.identity ? original : reduction.kernel;
}

/// Lift a matching of the kernel to a matching of the original graph:
/// map kernel matches back through the id maps and add every logged
/// forced match. If `kernel_matching` is maximum on the kernel, the
/// result is maximum on `original` (cardinality grows by exactly
/// forced_matches). Throws std::invalid_argument when
/// the matching or graph dimensions do not match the reduction.
Matching reconstruct_matching(const BipartiteGraph& original,
                              const Reduction& reduction,
                              const Matching& kernel_matching);

/// One-line description of a reduction (mode, rounds, op counts, kernel
/// shape) for test failure messages and fuzz reproducer dumps.
std::string debug_summary(const Reduction& reduction);

}  // namespace graftmatch::reduce
