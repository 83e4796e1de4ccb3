// Configuration and instrumentation shared by all matching algorithms.
//
// The paper's evaluation is driven by algorithmic metrics (edges
// traversed, phases, augmenting-path lengths -- Fig. 1), step timing
// breakdowns (Fig. 6), frontier anatomy (Fig. 8), and search rates
// (Fig. 4). Every algorithm in this library fills the same RunStats so
// the benches can print those tables uniformly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graftmatch/types.hpp"

namespace graftmatch {

/// Kernelization pre-pass selection (src/graftmatch/reduce/). The mode
/// names match the `--reduce=` CLI values.
enum class ReduceMode {
  kNone,     ///< no preprocessing ("none")
  kDegree1,  ///< isolated removal + pendant cascade ("d1")
};

/// Canonical CLI name of a mode ("none" / "d1").
std::string to_string(ReduceMode mode);

/// Inverse of to_string; returns false (leaving `mode` untouched) for
/// unknown names.
bool parse_reduce_mode(const std::string& name, ReduceMode& mode);

/// Bottom-up kernel arm (engine/word_kernels.hpp). The names match the
/// `--kernel=` CLI values.
enum class BottomUpKernel {
  kBit,   ///< per-candidate pool scan, per-bit visited updates ("bit")
  kWord,  ///< whole-word ctz scan of the visited complement with
          ///< word-granular claims ("word")
};

/// Canonical CLI name of a kernel arm ("bit" / "word").
std::string to_string(BottomUpKernel kernel);

/// Inverse of to_string; returns false (leaving `kernel` untouched) for
/// unknown names.
bool parse_bottom_up_kernel(const std::string& name, BottomUpKernel& kernel);

/// Knobs common to all algorithms (each algorithm reads the subset that
/// applies to it; defaults reproduce the paper's settings).
struct RunConfig {
  /// Cap on a solve's OpenMP width; <= 0 caps at the runtime default.
  /// Each solve runs solve_width(edges, threads) threads wide
  /// (runtime/parallel.hpp), so small graphs run narrower than the cap.
  int threads = 0;

  /// Direction-optimization and grafting threshold (paper: alpha ~= 5).
  double alpha = kDefaultAlpha;

  /// MS-BFS-Graft ablation switches (Fig. 7): with both false the
  /// algorithm degenerates to the plain MS-BFS of Azad et al.
  bool direction_optimizing = true;
  bool tree_grafting = true;

  /// Record (phase, level, frontier size, direction) samples (Fig. 8).
  bool collect_frontier_trace = false;

  /// Record the augmenting-path length distribution (Fig. 1c detail).
  bool collect_path_histogram = false;

  /// MS-BFS-Graft only: record one PhaseStats row per phase.
  bool collect_phase_stats = false;

  /// MS-BFS-Graft only: after every BFS phase, run an O(n + m) audit of
  /// the alternating-forest invariants (tree disjointness, parent edges
  /// exist, root-pointer consistency, alternation, leaf validity) and
  /// throw std::logic_error on any violation. For tests and debugging;
  /// roughly doubles the runtime.
  bool check_invariants = false;

  /// Seed for any tie-breaking randomness an algorithm may use.
  std::uint64_t seed = 1;

  /// Kernelization pre-pass (engine::run): reduce the graph,
  /// solve on the kernel, reconstruct onto the original. Solvers
  /// themselves ignore this field; it is read by the engine driver.
  ReduceMode reduce = ReduceMode::kNone;

  /// Bottom-up kernel arm: per-candidate pool scan (kBit, the default)
  /// or word-level scan of the visited complement with word-granular
  /// claims (kWord; engine/word_kernels.hpp). Cardinalities are
  /// identical either way; bench_micro_kernels A/Bs the arms.
  BottomUpKernel bottom_up_kernel = BottomUpKernel::kBit;
};

// The counter schema: every struct run_stats_json() writes lists its
// JSON keys once, in output order, in a static for_each_field(self,
// visit) that calls visit(key, field) per key (`self` may be const). A
// `collected` flag is not a key: it leaves its block out of the JSON
// while false. Adding a counter means adding the member and one visit
// line beside it.

/// Per-phase summary of an MS-BFS-Graft run (RunConfig::
/// collect_phase_stats). One row per repeat-until iteration of
/// Algorithm 3, mirroring the phase-level discussion in Secs. III and V.
struct PhaseStats {
  std::int64_t phase = 0;          ///< 1-based phase index
  std::int64_t levels = 0;         ///< BFS levels run in Step 1
  std::int64_t bottom_up_levels = 0;
  std::int64_t edges = 0;          ///< edges traversed in this phase
  std::int64_t augmentations = 0;  ///< paths found and flipped
  std::int64_t active_x = 0;       ///< |activeX| at the graft decision
  std::int64_t renewable_y = 0;    ///< |renewableY| at the graft decision
  bool grafted = false;            ///< Step 3 chose grafting (not rebuild)
  double seconds = 0.0;

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("phase", s.phase);
    visit("levels", s.levels);
    visit("bottom_up_levels", s.bottom_up_levels);
    visit("edges", s.edges);
    visit("augmentations", s.augmentations);
    visit("active_x", s.active_x);
    visit("renewable_y", s.renewable_y);
    visit("grafted", s.grafted);
    visit("seconds", s.seconds);
  }
};

/// One frontier-size sample from a level-synchronous search.
struct FrontierSample {
  std::int64_t phase = 0;
  std::int64_t level = 0;          ///< BFS level within the phase
  std::int64_t frontier_size = 0;  ///< |F| entering this level
  bool bottom_up = false;          ///< direction chosen for this level

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("phase", s.phase);
    visit("level", s.level);
    visit("frontier_size", s.frontier_size);
    visit("bottom_up", s.bottom_up);
  }
};

/// Counters folded from the structured trace (src/graftmatch/obs/) by
/// obs::summarize() when a run executed with tracing armed. `collected`
/// stays false on untraced runs and in GRAFTMATCH_TRACE=OFF builds; the
/// other fields are then meaningless. Direction counts live in
/// DirectionCounters, which every graft run fills traced or not.
struct ObsCounters {
  bool collected = false;
  std::int64_t events = 0;   ///< trace events captured across threads
  std::int64_t dropped = 0;  ///< events lost to full per-thread rings
  std::int64_t levels = 0;   ///< BFS levels (frontier samples) observed
  std::int64_t grafts = 0;           ///< phases ending in a graft
  std::int64_t rebuilds = 0;         ///< phases ending in a rebuild
  std::int64_t frontier_peak = 0;    ///< max |F| over all levels
  std::int64_t frontier_volume = 0;  ///< sum of |F| over all levels

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("events", s.events);
    visit("dropped", s.dropped);
    visit("levels", s.levels);
    visit("grafts", s.grafts);
    visit("rebuilds", s.rebuilds);
    visit("frontier_peak", s.frontier_peak);
    visit("frontier_volume", s.frontier_volume);
  }
};

/// Counters from MS-BFS-Graft's epoch-versioned phase bookkeeping
/// (runtime/epoch_array.hpp + the GraftWorkspace). They quantify how
/// much full-range sweeping the incremental scheme avoided: the
/// classification sweeps scale with `classified_y`/`counted_x` (the
/// vertices phases actually touched) instead of phases * (nx + ny), the
/// candidate pool is built lazily per direction-switch streak
/// (`pool_builds`), maintained by re-inserting freed vertices
/// (`pool_reinserts`) and dropped whole on rebuild, and every rebuild
/// tears the forest down with two epoch bumps (`epoch_bumps`) instead
/// of an O(nx) clear. `collected` stays false for non-graft algorithms.
struct BookkeepingCounters {
  bool collected = false;
  bool workspace_warm = false;   ///< arrays reused from a previous run
  std::int64_t pool_builds = 0;  ///< full O(ny) candidate-pool builds
  std::int64_t pool_reinserts = 0;  ///< freed Ys re-inserted into the pool
  std::int64_t classified_y = 0;    ///< forest Ys classified (all phases)
  std::int64_t counted_x = 0;       ///< forest Xs counted (all phases)
  std::int64_t epoch_bumps = 0;     ///< O(1) forest invalidations

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("workspace_warm", s.workspace_warm);
    visit("pool_builds", s.pool_builds);
    visit("pool_reinserts", s.pool_reinserts);
    visit("classified_y", s.classified_y);
    visit("counted_x", s.counted_x);
    visit("epoch_bumps", s.epoch_bumps);
  }
};

/// Counters from MS-BFS-Graft's per-level top-down/bottom-up choice
/// (the paper's alpha rule, engine::prefer_bottom_up) and the bottom-up
/// kernel arm (engine/word_kernels.hpp). `collected` stays false for
/// algorithms without a direction switch; the other fields are then
/// meaningless. Stamped by ms_bfs_graft ("direction" JSON block).
struct DirectionCounters {
  bool collected = false;
  BottomUpKernel kernel = BottomUpKernel::kBit;
  /// Levels the rule decided (0 when direction_optimizing is off).
  std::int64_t decisions = 0;
  std::int64_t bottom_up_levels = 0; ///< decisions that chose bottom-up
  /// Direction changes between consecutive levels; every phase starts
  /// top-down, so a phase whose first level is bottom-up counts one.
  std::int64_t switches = 0;
  /// Word-kernel activity (kWord arm only): words committed with a
  /// word-granular claim, and commits that fell back to the per-bit
  /// CAS path under contention.
  std::int64_t word_commits = 0;
  std::int64_t word_fallbacks = 0;

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("kernel", s.kernel);
    visit("decisions", s.decisions);
    visit("bottom_up_levels", s.bottom_up_levels);
    visit("switches", s.switches);
    visit("word_commits", s.word_commits);
    visit("word_fallbacks", s.word_fallbacks);
  }
};

/// Counters from the kernelization pre-pass (src/graftmatch/reduce/).
/// `collected` stays false when no reduction ran; the other fields are
/// then meaningless. Stamped by engine::run.
struct ReduceCounters {
  bool collected = false;
  ReduceMode mode = ReduceMode::kNone;
  std::int64_t rounds = 0;          ///< reduction rounds until fixpoint
  std::int64_t isolated_x = 0;      ///< degree-0 X vertices removed
  std::int64_t isolated_y = 0;      ///< degree-0 Y vertices removed
  std::int64_t forced_matches = 0;  ///< pendant (degree-1) matches
  std::int64_t vertices_removed = 0;  ///< X+Y vertices not in the kernel
  std::int64_t edges_removed = 0;     ///< original edges not in the kernel
  std::int64_t kernel_nx = 0;
  std::int64_t kernel_ny = 0;
  std::int64_t kernel_edges = 0;
  double reduce_seconds = 0.0;       ///< reduction rounds
  double compact_seconds = 0.0;      ///< renumber + kernel CSR build
  double reconstruct_seconds = 0.0;  ///< kernel matching -> original

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("mode", s.mode);
    visit("rounds", s.rounds);
    visit("isolated_x", s.isolated_x);
    visit("isolated_y", s.isolated_y);
    visit("forced_matches", s.forced_matches);
    visit("vertices_removed", s.vertices_removed);
    visit("edges_removed", s.edges_removed);
    visit("kernel_nx", s.kernel_nx);
    visit("kernel_ny", s.kernel_ny);
    visit("kernel_edges", s.kernel_edges);
    visit("reduce_seconds", s.reduce_seconds);
    visit("compact_seconds", s.compact_seconds);
    visit("reconstruct_seconds", s.reconstruct_seconds);
  }
};

/// Counters from the incremental matcher (src/graftmatch/dynamic/).
/// `collected` stays false on one-shot runs; the other fields are then
/// meaningless. Stamped by dynamic::DynamicMatcher, accumulated over
/// the matcher's whole lifetime (every batch since construction).
struct DynamicCounters {
  bool collected = false;
  std::int64_t batches = 0;        ///< add/remove batches applied
  std::int64_t edges_added = 0;    ///< edges actually inserted (deduped)
  std::int64_t edges_removed = 0;  ///< edges actually erased (deduped)
  std::int64_t direct_matches = 0;    ///< both-endpoints-free fast path
  std::int64_t reaugment_searches = 0;  ///< localized BFS launched
  std::int64_t reaugment_paths = 0;     ///< augmenting paths applied
  std::int64_t sweep_rounds = 0;   ///< all-free-X sweeps after inserts
  std::int64_t resolves = 0;       ///< staleness-triggered full re-solves
  std::int64_t compactions = 0;    ///< overlay folded back into CSR
  std::int64_t overlay_peak = 0;   ///< max overlay cost() observed
  double apply_seconds = 0.0;      ///< overlay mutation (both batch kinds)
  double reaugment_seconds = 0.0;  ///< localized searches + sweeps
  double compact_seconds = 0.0;    ///< payoff-gated compactions
  double resolve_seconds = 0.0;    ///< full re-solves via the registry

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("batches", s.batches);
    visit("edges_added", s.edges_added);
    visit("edges_removed", s.edges_removed);
    visit("direct_matches", s.direct_matches);
    visit("reaugment_searches", s.reaugment_searches);
    visit("reaugment_paths", s.reaugment_paths);
    visit("sweep_rounds", s.sweep_rounds);
    visit("resolves", s.resolves);
    visit("compactions", s.compactions);
    visit("overlay_peak", s.overlay_peak);
    visit("apply_seconds", s.apply_seconds);
    visit("reaugment_seconds", s.reaugment_seconds);
    visit("compact_seconds", s.compact_seconds);
    visit("resolve_seconds", s.resolve_seconds);
  }
};

/// Wall-clock seconds per algorithm step (Fig. 6's categories).
struct StepSeconds {
  double top_down = 0.0;
  double bottom_up = 0.0;
  double augment = 0.0;
  double graft = 0.0;       ///< frontier reconstruction (Step 3)
  double statistics = 0.0;  ///< active/renewable classification (Alg. 7 l.2-4)
  double other = 0.0;       ///< init, bookkeeping not in the above

  double total() const noexcept {
    return top_down + bottom_up + augment + graft + statistics + other;
  }

  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("top_down", s.top_down);
    visit("bottom_up", s.bottom_up);
    visit("augment", s.augment);
    visit("graft", s.graft);
    visit("statistics", s.statistics);
    visit("other", s.other);
  }
};

/// Everything a single algorithm run reports.
struct RunStats {
  std::string algorithm;

  std::int64_t phases = 0;
  std::int64_t edges_traversed = 0;  ///< adjacency entries examined
  std::int64_t augmentations = 0;    ///< augmenting paths applied
  std::int64_t total_path_edges = 0; ///< sum of augmenting path lengths

  std::int64_t initial_cardinality = 0;
  std::int64_t final_cardinality = 0;

  /// OpenMP threads the run's parallel regions used: the solve's
  /// solve_width() (1 for the serial algorithms). Stamped once by the
  /// engine's StatsSink constructor.
  int threads_used = 0;

  double seconds = 0.0;  ///< total wall time of the matching run
  StepSeconds step_seconds;

  /// Trace-derived counters (see ObsCounters). Stamped by StatsSink
  /// when the run owned an armed trace.
  ObsCounters obs;

  /// Kernelization counters (see ReduceCounters). Stamped by
  /// engine::run when a reduction pre-pass ran; on reduced runs
  /// the cardinalities above are in original-graph terms while
  /// phases/edges/seconds describe the kernel solve.
  ReduceCounters reduce;

  /// Epoch-bookkeeping counters (see BookkeepingCounters). Stamped by
  /// ms_bfs_graft.
  BookkeepingCounters bookkeeping;

  /// Direction-rule and kernel-arm counters (see DirectionCounters).
  /// Stamped by ms_bfs_graft.
  DirectionCounters direction;

  /// Incremental-matching counters (see DynamicCounters). Stamped by
  /// dynamic::DynamicMatcher::stats(); lifetime-cumulative.
  DynamicCounters dynamic;

  /// Filled when RunConfig::collect_frontier_trace is set.
  std::vector<FrontierSample> frontier_trace;

  /// Augmenting-path length distribution: length (in edges, always odd)
  /// -> count. Filled by the augmenting-path based algorithms when
  /// RunConfig::collect_path_histogram is set.
  std::map<std::int64_t, std::int64_t> path_length_histogram;

  /// Per-phase rows (RunConfig::collect_phase_stats; MS-BFS-Graft only).
  std::vector<PhaseStats> phase_stats;

  /// Mean augmenting-path length in edges (Fig. 1c), 0 when none found.
  double avg_path_length() const noexcept {
    return augmentations > 0 ? static_cast<double>(total_path_edges) /
                                   static_cast<double>(augmentations)
                             : 0.0;
  }

  /// Search rate in millions of traversed edges per second (Fig. 4):
  /// traversed edges / runtime, with augmentation time included, exactly
  /// as the paper computes it (Sec. V-C).
  double mteps() const noexcept {
    return seconds > 0.0 ? static_cast<double>(edges_traversed) / seconds / 1e6
                         : 0.0;
  }

  /// avg_path_length and mteps are derived, not members.
  template <class Self, class Visit>
  static void for_each_field(Self& s, Visit&& visit) {
    visit("algorithm", s.algorithm);
    visit("phases", s.phases);
    visit("edges_traversed", s.edges_traversed);
    visit("augmentations", s.augmentations);
    visit("total_path_edges", s.total_path_edges);
    visit("initial_cardinality", s.initial_cardinality);
    visit("final_cardinality", s.final_cardinality);
    visit("threads_used", s.threads_used);
    visit("seconds", s.seconds);
    visit("avg_path_length", s.avg_path_length());
    visit("mteps", s.mteps());
    visit("step_seconds", s.step_seconds);
    visit("obs", s.obs);
    visit("reduce", s.reduce);
    visit("dynamic", s.dynamic);
    visit("bookkeeping", s.bookkeeping);
    visit("direction", s.direction);
    visit("path_length_histogram", s.path_length_histogram);
    visit("phase_stats", s.phase_stats);
    visit("frontier_trace", s.frontier_trace);
  }
};

/// Render a one-line summary: algorithm, |M|, phases, edges, time.
std::string format_run_stats(const RunStats& stats);

/// Render the full stats as a self-contained JSON object: one walk over
/// the for_each_field lists above. Non-finite doubles are written as 0
/// (JSON has no NaN/Inf), blocks whose `collected` is false and empty
/// row arrays are left out. Machine-readable counterpart of
/// format_run_stats for tooling (examples/matching_tool --json).
std::string run_stats_json(const RunStats& stats);

/// `text` as a quoted JSON string literal, with quotes, backslashes and
/// control characters escaped (also used by the Chrome-trace writer).
std::string json_quoted(const std::string& text);

}  // namespace graftmatch
