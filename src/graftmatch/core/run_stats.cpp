#include "graftmatch/core/run_stats.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "graftmatch/runtime/timer.hpp"

namespace graftmatch {
namespace {

/// JSON has no NaN/Inf literals; raw-streaming a non-finite double
/// (possible e.g. from a degenerate 0-second run) would corrupt the
/// document. Emit 0 for anything non-finite.
void append_number(std::ostringstream& out, double value) {
  if (std::isfinite(value)) {
    out << value;
  } else {
    out << 0;
  }
}

void append_escaped(std::ostringstream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string to_string(ReduceMode mode) {
  switch (mode) {
    case ReduceMode::kNone: return "none";
    case ReduceMode::kDegree1: return "d1";
  }
  return "none";
}

bool parse_reduce_mode(const std::string& name, ReduceMode& mode) {
  if (name == "none") {
    mode = ReduceMode::kNone;
  } else if (name == "d1") {
    mode = ReduceMode::kDegree1;
  } else {
    return false;
  }
  return true;
}

std::string to_string(BottomUpKernel kernel) {
  switch (kernel) {
    case BottomUpKernel::kBit: return "bit";
    case BottomUpKernel::kWord: return "word";
  }
  return "bit";
}

bool parse_bottom_up_kernel(const std::string& name,
                            BottomUpKernel& kernel) {
  if (name == "bit") {
    kernel = BottomUpKernel::kBit;
  } else if (name == "word") {
    kernel = BottomUpKernel::kWord;
  } else {
    return false;
  }
  return true;
}

std::string format_run_stats(const RunStats& stats) {
  std::ostringstream out;
  out << stats.algorithm << ": |M|=" << stats.final_cardinality << " (+"
      << (stats.final_cardinality - stats.initial_cardinality) << ")"
      << " phases=" << stats.phases << " edges=" << stats.edges_traversed
      << " paths=" << stats.augmentations
      << " avg_len=" << stats.avg_path_length() << " time="
      << format_seconds(stats.seconds) << " rate=" << stats.mteps()
      << " MTEPS";
  if (stats.reduce.collected) {
    out << " reduce=" << to_string(stats.reduce.mode) << "(kernel "
        << stats.reduce.kernel_nx << "x" << stats.reduce.kernel_ny << ", "
        << stats.reduce.kernel_edges << " edges, forced "
        << stats.reduce.forced_matches << ")";
  }
  if (stats.direction.collected &&
      stats.direction.kernel != BottomUpKernel::kBit) {
    out << " kernel=" << to_string(stats.direction.kernel);
  }
  return out.str();
}

std::string run_stats_json(const RunStats& stats) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"algorithm\":";
  append_escaped(out, stats.algorithm);
  out << ",\"phases\":" << stats.phases
      << ",\"edges_traversed\":" << stats.edges_traversed
      << ",\"augmentations\":" << stats.augmentations
      << ",\"total_path_edges\":" << stats.total_path_edges
      << ",\"initial_cardinality\":" << stats.initial_cardinality
      << ",\"final_cardinality\":" << stats.final_cardinality
      << ",\"threads_used\":" << stats.threads_used << ",\"seconds\":";
  append_number(out, stats.seconds);
  out << ",\"avg_path_length\":";
  append_number(out, stats.avg_path_length());
  out << ",\"mteps\":";
  append_number(out, stats.mteps());
  const StepSeconds& s = stats.step_seconds;
  out << ",\"step_seconds\":{\"top_down\":";
  append_number(out, s.top_down);
  out << ",\"bottom_up\":";
  append_number(out, s.bottom_up);
  out << ",\"augment\":";
  append_number(out, s.augment);
  out << ",\"graft\":";
  append_number(out, s.graft);
  out << ",\"statistics\":";
  append_number(out, s.statistics);
  out << ",\"other\":";
  append_number(out, s.other);
  out << "}";
  if (stats.obs.collected) {
    const ObsCounters& o = stats.obs;
    out << ",\"obs\":{\"events\":" << o.events << ",\"dropped\":" << o.dropped
        << ",\"levels\":" << o.levels
        << ",\"bottom_up_levels\":" << o.bottom_up_levels
        << ",\"direction_switches\":" << o.direction_switches
        << ",\"grafts\":" << o.grafts << ",\"rebuilds\":" << o.rebuilds
        << ",\"frontier_peak\":" << o.frontier_peak
        << ",\"frontier_volume\":" << o.frontier_volume << "}";
  }
  if (stats.reduce.collected) {
    const ReduceCounters& r = stats.reduce;
    out << ",\"reduce\":{\"mode\":";
    append_escaped(out, to_string(r.mode));
    out << ",\"rounds\":" << r.rounds << ",\"isolated_x\":" << r.isolated_x
        << ",\"isolated_y\":" << r.isolated_y
        << ",\"forced_matches\":" << r.forced_matches
        << ",\"vertices_removed\":" << r.vertices_removed
        << ",\"edges_removed\":" << r.edges_removed
        << ",\"kernel_nx\":" << r.kernel_nx
        << ",\"kernel_ny\":" << r.kernel_ny
        << ",\"kernel_edges\":" << r.kernel_edges << ",\"reduce_seconds\":";
    append_number(out, r.reduce_seconds);
    out << ",\"compact_seconds\":";
    append_number(out, r.compact_seconds);
    out << ",\"reconstruct_seconds\":";
    append_number(out, r.reconstruct_seconds);
    out << "}";
  }
  if (stats.dynamic.collected) {
    const DynamicCounters& d = stats.dynamic;
    out << ",\"dynamic\":{\"batches\":" << d.batches
        << ",\"edges_added\":" << d.edges_added
        << ",\"edges_removed\":" << d.edges_removed
        << ",\"direct_matches\":" << d.direct_matches
        << ",\"reaugment_searches\":" << d.reaugment_searches
        << ",\"reaugment_paths\":" << d.reaugment_paths
        << ",\"sweep_rounds\":" << d.sweep_rounds
        << ",\"resolves\":" << d.resolves
        << ",\"compactions\":" << d.compactions
        << ",\"overlay_peak\":" << d.overlay_peak << ",\"apply_seconds\":";
    append_number(out, d.apply_seconds);
    out << ",\"reaugment_seconds\":";
    append_number(out, d.reaugment_seconds);
    out << ",\"compact_seconds\":";
    append_number(out, d.compact_seconds);
    out << ",\"resolve_seconds\":";
    append_number(out, d.resolve_seconds);
    out << "}";
  }
  if (stats.bookkeeping.collected) {
    const BookkeepingCounters& b = stats.bookkeeping;
    out << ",\"bookkeeping\":{\"workspace_warm\":"
        << (b.workspace_warm ? "true" : "false")
        << ",\"pool_builds\":" << b.pool_builds
        << ",\"pool_reinserts\":" << b.pool_reinserts
        << ",\"classified_y\":" << b.classified_y
        << ",\"counted_x\":" << b.counted_x
        << ",\"epoch_bumps\":" << b.epoch_bumps << "}";
  }
  if (stats.direction.collected) {
    const DirectionCounters& dir = stats.direction;
    out << ",\"direction\":{\"kernel\":";
    append_escaped(out, to_string(dir.kernel));
    out << ",\"decisions\":" << dir.decisions
        << ",\"bottom_up_levels\":" << dir.bottom_up_levels
        << ",\"switches\":" << dir.switches
        << ",\"word_commits\":" << dir.word_commits
        << ",\"word_fallbacks\":" << dir.word_fallbacks << "}";
  }
  if (!stats.path_length_histogram.empty()) {
    out << ",\"path_length_histogram\":[";
    bool first = true;
    for (const auto& [length, count] : stats.path_length_histogram) {
      out << (first ? "" : ",") << "[" << length << "," << count << "]";
      first = false;
    }
    out << "]";
  }
  if (!stats.phase_stats.empty()) {
    out << ",\"phase_stats\":[";
    for (std::size_t i = 0; i < stats.phase_stats.size(); ++i) {
      const PhaseStats& p = stats.phase_stats[i];
      out << (i == 0 ? "" : ",") << "{\"phase\":" << p.phase
          << ",\"levels\":" << p.levels
          << ",\"bottom_up_levels\":" << p.bottom_up_levels
          << ",\"edges\":" << p.edges
          << ",\"augmentations\":" << p.augmentations
          << ",\"active_x\":" << p.active_x
          << ",\"renewable_y\":" << p.renewable_y
          << ",\"grafted\":" << (p.grafted ? "true" : "false")
          << ",\"seconds\":";
      append_number(out, p.seconds);
      out << "}";
    }
    out << "]";
  }
  if (!stats.frontier_trace.empty()) {
    out << ",\"frontier_trace\":[";
    for (std::size_t i = 0; i < stats.frontier_trace.size(); ++i) {
      const FrontierSample& f = stats.frontier_trace[i];
      out << (i == 0 ? "" : ",") << "{\"phase\":" << f.phase
          << ",\"level\":" << f.level
          << ",\"frontier_size\":" << f.frontier_size
          << ",\"bottom_up\":" << (f.bottom_up ? "true" : "false") << "}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace graftmatch
