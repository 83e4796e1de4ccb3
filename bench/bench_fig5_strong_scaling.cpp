// Fig. 5 reproduction: strong scaling of MS-BFS-Graft per graph class.
//
// The paper plots speedup vs thread count (up to 40 cores / 80 threads
// on Mirasol, 24/48 on Edison), averaged per class. This bench reports
// the same table -- speedup of T threads over 1 thread, averaged per
// class -- for T = 1, 2, 4, ... up to omp_get_num_procs(). There is no
// column past the CPU count: on vCPUs it measures oversubscription, not
// the paper's hyperthreads. On a one-CPU host it says so: there the
// curve measures parallel OVERHEAD (values <= 1.0 expected).
#include <omp.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graftmatch;
  using namespace graftmatch::bench;
  bench_entry(argc, argv, "bench_fig5_strong_scaling",
               "Fig. 5 (strong scaling of MS-BFS-Graft by graph class)");

  const int runs = run_count(3);
  const int max_cpu = omp_get_num_procs();
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_cpu; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_cpu) thread_counts.push_back(max_cpu);

  if (max_cpu == 1) {
    std::printf("NOTE: 1 physical core detected -- speedups measure "
                "parallel overhead, not scaling.\n\n");
  }

  const std::vector<Workload> workloads = make_suite_workloads(false);

  // class -> threads -> accumulated speedup
  std::map<std::string, std::map<int, std::vector<double>>> table;

  for (const Workload& w : workloads) {
    double serial_seconds = 0.0;
    for (const int threads : thread_counts) {
      RunConfig config;
      config.threads = threads;
      const double mean = mean_std(time_matching_runs(
                                       w.graph, runs,
                                       [&](const BipartiteGraph& g,
                                           Matching& m) {
                                         return ms_bfs_graft(g, m, config);
                                       })
                                       .seconds)
                              .mean;
      if (threads == 1) serial_seconds = mean;
      table[to_string(w.graph_class)][threads].push_back(
          serial_seconds / mean);
    }
  }

  std::printf("%-12s", "class");
  for (const int threads : thread_counts) std::printf(" %7dT", threads);
  std::printf("\n%s\n", std::string(12 + 8 * thread_counts.size(), '-').c_str());
  for (const auto& [cls, per_thread] : table) {
    std::printf("%-12s", cls.c_str());
    for (const int threads : thread_counts) {
      const auto& samples = per_thread.at(threads);
      double sum = 0.0;
      for (const double s : samples) sum += s;
      std::printf(" %7.2f",
                  sum / static_cast<double>(samples.size()));
    }
    std::printf("\n");
  }
  std::printf("\nvalues = average speedup over the 1-thread run (paper "
              "reports ~15x at 40 cores,\n~12x at 24).\n");
  return 0;
}
