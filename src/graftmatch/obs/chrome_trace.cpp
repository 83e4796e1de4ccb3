#include "graftmatch/obs/chrome_trace.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "graftmatch/core/run_stats.hpp"

namespace graftmatch::obs {
namespace {

constexpr int kPid = 1;

/// Microsecond timestamp with the sub-microsecond part kept: Perfetto
/// accepts fractional "ts"/"dur", and our spans are often sub-µs.
void append_us(std::ostringstream& out, std::int64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns < 0 ? -(ns % 1000) : ns % 1000));
  out << buffer;
}

void append_args(std::ostringstream& out, const Event& event) {
  if (event.name->arg0 == nullptr && event.name->arg1 == nullptr) return;
  out << ",\"args\":{";
  bool first = true;
  if (event.name->arg0 != nullptr) {
    out << '"' << event.name->arg0 << "\":" << event.arg0;
    first = false;
  }
  if (event.name->arg1 != nullptr) {
    out << (first ? "" : ",") << '"' << event.name->arg1
        << "\":" << event.arg1;
  }
  out << '}';
}

void append_metadata(std::ostringstream& out, const char* what, int tid,
                     const std::string& value) {
  out << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << kPid
      << ",\"tid\":" << tid << ",\"args\":{\"name\":" << json_quoted(value)
      << "}}";
}

}  // namespace

std::string chrome_trace_json(const RunTrace& trace) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ',';
    first = false;
  };

  separator();
  append_metadata(out, "process_name", 0, "graftmatch: " + trace.algorithm);
  std::set<std::int32_t> tids;
  for (const Event& event : trace.events) tids.insert(event.tid);
  for (const std::int32_t tid : tids) {
    separator();
    append_metadata(out, "thread_name", tid,
                    tid == 0 ? "serial" : "worker " + std::to_string(tid));
  }

  for (const Event& event : trace.events) {
    separator();
    out << "{\"name\":\"" << event.name->name << "\",\"ph\":\"";
    switch (event.kind) {
      case EventKind::kBegin: out << 'B'; break;
      case EventKind::kEnd: out << 'E'; break;
      case EventKind::kComplete: out << 'X'; break;
      case EventKind::kCounter: out << 'C'; break;
      case EventKind::kInstant: out << 'i'; break;
    }
    out << "\",\"pid\":" << kPid << ",\"tid\":" << event.tid << ",\"ts\":";
    append_us(out, event.ts_ns);
    if (event.kind == EventKind::kComplete) {
      out << ",\"dur\":";
      append_us(out, event.dur_ns);
    }
    if (event.kind == EventKind::kInstant) out << ",\"s\":\"t\"";
    append_args(out, event);
    out << '}';
  }

  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool write_chrome_trace_file(const std::string& path, const RunTrace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json(trace) << '\n';
  return static_cast<bool>(out.flush());
}

}  // namespace graftmatch::obs
