#include "graftmatch/core/run_stats.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <type_traits>
#include <utility>

#include "graftmatch/runtime/timer.hpp"

namespace graftmatch {
namespace {

template <class T, class = void>
constexpr bool kHasCollected = false;
template <class T>
constexpr bool kHasCollected<T, std::void_t<decltype(T::collected)>> = true;

template <class T, class = void>
constexpr bool kIsRange = false;
template <class T>
constexpr bool kIsRange<T, std::void_t<decltype(std::declval<T>().empty())>> =
    true;

template <class T>
constexpr bool kIsPair = false;
template <class A, class B>
constexpr bool kIsPair<std::pair<A, B>> = true;

/// The one walk behind run_stats_json: writes the keys a
/// for_each_field list visits as the members of one JSON object.
class JsonObjectWriter {
 public:
  explicit JsonObjectWriter(std::ostringstream& out) : out_(out) {}

  template <class T>
  void operator()(const char* key, const T& field) {
    if constexpr (kHasCollected<T>) {
      if (!field.collected) return;
    }
    if constexpr (kIsRange<T> && !std::is_same_v<T, std::string>) {
      if (field.empty()) return;
    }
    out_ << (first_ ? "" : ",") << '"' << key << "\":";
    first_ = false;
    write(out_, field);
  }

  template <class T>
  static void write(std::ostringstream& out, const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      out << (value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      out << value;
    } else if constexpr (std::is_floating_point_v<T>) {
      // JSON has no NaN/Inf literals; a degenerate 0-second run must not
      // corrupt the document.
      if (std::isfinite(value)) {
        out << value;
      } else {
        out << 0;
      }
    } else if constexpr (std::is_enum_v<T>) {
      out << json_quoted(to_string(value));
    } else if constexpr (std::is_same_v<T, std::string>) {
      out << json_quoted(value);
    } else if constexpr (kIsPair<T>) {
      out << '[' << value.first << ',' << value.second << ']';
    } else if constexpr (kIsRange<T>) {
      out << '[';
      bool first = true;
      for (const auto& item : value) {
        out << (first ? "" : ",");
        first = false;
        write(out, item);
      }
      out << ']';
    } else {
      out << '{';
      T::for_each_field(value, JsonObjectWriter(out));
      out << '}';
    }
  }

 private:
  std::ostringstream& out_;
  bool first_ = true;
};

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
  JsonObjectWriter::write(out, stats);
  return out.str();
}

std::string json_quoted(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          quoted += buffer;
        } else {
          quoted += c;
        }
    }
  }
  return quoted + '"';
}

}  // namespace graftmatch
