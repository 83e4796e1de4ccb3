// Runtime system description, used by bench_table1_system to print the
// reproduction-substrate analogue of the paper's Table I.
#pragma once

#include <cstdint>
#include <string>

namespace graftmatch {

struct SystemInfo {
  std::string cpu_model;       ///< from /proc/cpuinfo, or "unknown"
  int logical_cpus = 0;        ///< omp_get_num_procs(): CPUs in the mask
  std::int64_t total_ram_mb = 0;
  std::string compiler;        ///< compiler id + version baked at build time
  int openmp_max_threads = 0;  ///< omp_get_max_threads() at query time
  std::string openmp_version;  ///< _OPENMP date macro, decoded
};

/// Gather a best-effort description of the current machine.
SystemInfo query_system_info();

/// Render as an aligned, human-readable block.
std::string format_system_info(const SystemInfo& info);

}  // namespace graftmatch
