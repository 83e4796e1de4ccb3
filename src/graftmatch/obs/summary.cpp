#include "graftmatch/obs/summary.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace graftmatch::obs {
namespace {

bool is(const Event& event, const EventName& name) {
  // Compare by string: EventName constants are inline variables, but
  // string identity keeps the fold correct for any equal-named emitter.
  return event.name == &name ||
         std::string_view(event.name->name) == name.name;
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string cell(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

}  // namespace

TraceSummary summarize(const RunTrace& trace) {
  TraceSummary summary;
  ObsCounters& counts = summary.counters;
  counts.collected = true;
  counts.events = static_cast<std::int64_t>(trace.events.size());
  counts.dropped = trace.dropped;

  // Events arrive grouped by tid and time-ordered per tid, so one pass
  // with per-span-name stacks folds every thread segment. Step and
  // phase spans never self-nest, so a stack per name (just the open
  // begin timestamp) is enough; -1 marks "not open".
  struct OpenSpans {
    std::int64_t phase = -1;
    std::int64_t step[5] = {-1, -1, -1, -1, -1};
  };
  const EventName* const kSteps[5] = {&names::kTopDown, &names::kBottomUp,
                                      &names::kAugment, &names::kGraft,
                                      &names::kStatistics};
  double* const step_totals[5] = {&summary.top_down, &summary.bottom_up,
                                  &summary.augment, &summary.graft,
                                  &summary.statistics};

  OpenSpans open;
  PhaseAnatomy current;
  bool phase_open = false;
  std::int32_t segment_tid = trace.events.empty() ? 0 : trace.events[0].tid;

  for (const Event& event : trace.events) {
    if (event.tid != segment_tid) {
      // New thread segment: abandon any unbalanced spans defensively.
      segment_tid = event.tid;
      open = OpenSpans{};
      phase_open = false;
    }

    switch (event.kind) {
      case EventKind::kBegin:
        if (is(event, names::kPhase)) {
          open.phase = event.ts_ns;
          current = PhaseAnatomy{};
          current.phase = event.arg0;
          phase_open = true;
        } else {
          for (int s = 0; s < 5; ++s) {
            if (is(event, *kSteps[s])) {
              open.step[s] = event.ts_ns;
              break;
            }
          }
        }
        break;

      case EventKind::kEnd:
        if (is(event, names::kPhase)) {
          if (phase_open && open.phase >= 0) {
            current.seconds = ns_to_s(event.ts_ns - open.phase);
            current.augmentations = event.arg1;
            summary.phases.push_back(current);
          }
          open.phase = -1;
          phase_open = false;
        } else {
          for (int s = 0; s < 5; ++s) {
            if (!is(event, *kSteps[s]) || open.step[s] < 0) continue;
            const double seconds = ns_to_s(event.ts_ns - open.step[s]);
            *step_totals[s] += seconds;
            if (phase_open) {
              double* const phase_steps[5] = {
                  &current.top_down, &current.bottom_up, &current.augment,
                  &current.graft, &current.statistics};
              *phase_steps[s] += seconds;
            }
            open.step[s] = -1;
            break;
          }
        }
        break;

      case EventKind::kCounter:
        if (is(event, names::kFrontier)) {
          ++counts.levels;
          counts.frontier_peak = std::max(counts.frontier_peak, event.arg0);
          counts.frontier_volume += event.arg0;
          if (phase_open) {
            ++current.levels;
            current.bottom_up_levels += event.arg1 != 0;
            current.frontier_peak =
                std::max(current.frontier_peak, event.arg0);
            current.frontier_volume += event.arg0;
          }
        }
        break;

      case EventKind::kInstant:
        if (is(event, names::kGraftChosen)) {
          ++counts.grafts;
          if (phase_open) current.grafted = true;
        } else if (is(event, names::kRebuildChosen)) {
          ++counts.rebuilds;
        }
        break;

      case EventKind::kComplete:  // per-thread kernel spans: not folded
        break;
    }
  }
  return summary;
}

std::vector<std::string> phase_csv_columns() {
  return {"instance",     "phase",        "seconds",       "top_down_s",
          "bottom_up_s",  "augment_s",    "graft_s",       "statistics_s",
          "levels",       "bottom_up_levels", "frontier_peak",
          "frontier_volume", "augmentations", "grafted"};
}

std::vector<std::string> phase_csv_row(const std::string& instance,
                                       const PhaseAnatomy& row) {
  return {instance,
          std::to_string(row.phase),
          cell(row.seconds),
          cell(row.top_down),
          cell(row.bottom_up),
          cell(row.augment),
          cell(row.graft),
          cell(row.statistics),
          std::to_string(row.levels),
          std::to_string(row.bottom_up_levels),
          std::to_string(row.frontier_peak),
          std::to_string(row.frontier_volume),
          std::to_string(row.augmentations),
          row.grafted ? "1" : "0"};
}

}  // namespace graftmatch::obs
