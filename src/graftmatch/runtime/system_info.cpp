#include "graftmatch/runtime/system_info.hpp"

#include <omp.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace graftmatch {
namespace {

std::string detect_cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler_id() {
  std::ostringstream out;
#if defined(__clang__)
  out << "clang " << __clang_major__ << '.' << __clang_minor__ << '.'
      << __clang_patchlevel__;
#elif defined(__GNUC__)
  out << "gcc " << __GNUC__ << '.' << __GNUC_MINOR__ << '.'
      << __GNUC_PATCHLEVEL__;
#else
  out << "unknown";
#endif
  return out.str();
}

std::string openmp_version_string() {
#ifdef _OPENMP
  switch (_OPENMP) {
    case 201107: return "3.1";
    case 201307: return "4.0";
    case 201511: return "4.5";
    case 201811: return "5.0";
    case 202011: return "5.1";
    case 202111: return "5.2";
    default: {
      std::ostringstream out;
      out << "date " << _OPENMP;
      return out.str();
    }
  }
#else
  return "disabled";
#endif
}

}  // namespace

SystemInfo query_system_info() {
  SystemInfo info;
  info.cpu_model = detect_cpu_model();
  info.logical_cpus = omp_get_num_procs();
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages > 0 && page_size > 0) {
    info.total_ram_mb =
        static_cast<std::int64_t>(pages) * page_size / (1024 * 1024);
  }
  info.compiler = compiler_id();
  info.openmp_max_threads = omp_get_max_threads();
  info.openmp_version = openmp_version_string();
  return info;
}

std::string format_system_info(const SystemInfo& info) {
  std::ostringstream out;
  out << "CPU model          : " << info.cpu_model << '\n'
      << "Logical CPUs       : " << info.logical_cpus << '\n'
      << "RAM                : " << info.total_ram_mb << " MB\n"
      << "Compiler           : " << info.compiler << '\n'
      << "OpenMP version     : " << info.openmp_version << '\n'
      << "OpenMP max threads : " << info.openmp_max_threads << '\n';
  return out.str();
}

}  // namespace graftmatch
