// Trace summarization: fold an obs::RunTrace back into the per-step
// seconds and per-phase anatomy the paper's figures consume.
//
// bench_fig6_breakdown reconciles these step totals against the
// StatsSink stopwatch columns (they must agree within noise: every
// trace span is emitted strictly inside its stopwatch lap), and
// bench_fig8 reads the frontier counters. StatsSink stamps the counter
// block into RunStats::obs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/obs/trace.hpp"

namespace graftmatch::obs {

/// Anatomy of one MS-BFS-Graft phase, rebuilt from the phase span and
/// the events nested inside it on the emitting thread.
struct PhaseAnatomy {
  std::int64_t phase = 0;   ///< 1-based index (arg0 of the phase span)
  double seconds = 0.0;     ///< phase span duration
  double top_down = 0.0;    ///< step span seconds inside this phase
  double bottom_up = 0.0;
  double augment = 0.0;
  double graft = 0.0;
  double statistics = 0.0;
  std::int64_t levels = 0;  ///< frontier counters seen in this phase
  std::int64_t bottom_up_levels = 0;
  std::int64_t frontier_peak = 0;
  std::int64_t frontier_volume = 0;  ///< sum of |F| over levels
  std::int64_t augmentations = 0;    ///< arg1 of the phase End event
  bool grafted = false;              ///< a graft_chosen instant fired
};

/// Whole-run rollup of a trace.
struct TraceSummary {
  /// Step seconds summed over all B/E step spans (Fig. 6 columns).
  double top_down = 0.0;
  double bottom_up = 0.0;
  double augment = 0.0;
  double graft = 0.0;
  double statistics = 0.0;

  /// The whole-run counts, as RunStats::obs reports them (collected).
  ObsCounters counters;

  std::vector<PhaseAnatomy> phases;
};

/// Fold a trace. Events must be per-thread contiguous and
/// timestamp-ordered within each thread, as end_run() produces them.
TraceSummary summarize(const RunTrace& trace);

/// CSV schema for per-phase anatomy rows (bench_fig6's second
/// artifact): instance + the PhaseAnatomy fields in declaration order.
std::vector<std::string> phase_csv_columns();
std::vector<std::string> phase_csv_row(const std::string& instance,
                                       const PhaseAnatomy& row);

}  // namespace graftmatch::obs
