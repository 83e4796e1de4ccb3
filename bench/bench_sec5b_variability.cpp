// Sec. V-B reproduction: variation in parallel runtimes.
//
// The paper defines parallel sensitivity psi = (stddev / mean) * 100
// over 10 runs at full thread count and reports averages of 6% for
// MS-BFS-Graft vs 17% (PF) and 10% (PR) -- the fine-grained parallelism
// of Graft balances work more evenly than DFS-tree-per-thread PF.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graftmatch;
  using namespace graftmatch::bench;
  bench_entry(argc, argv, "bench_sec5b_variability",
               "Sec. V-B (runtime variability psi = sigma/mu over repeated "
               "parallel runs)");

  const int runs = run_count(10);
  const std::vector<Workload> workloads = make_suite_workloads(false);
  CsvWriter csv("sec5b_variability",
                {"instance", "algorithm", "run", "seconds"});

  RunConfig config;  // all threads

  std::printf("%-18s %10s %10s %10s\n", "instance", "Graft psi%", "PF psi%",
              "PR psi%");
  std::printf("%s\n", std::string(52, '-').c_str());

  double sum_graft = 0.0;
  double sum_pf = 0.0;
  double sum_pr = 0.0;
  for (const Workload& w : workloads) {
    // Per-run samples land in the CSV so psi can be recomputed (or the
    // distribution replotted) without rerunning the bench.
    const auto psi = [&](const char* algorithm,
                         const std::vector<double>& seconds) {
      for (std::size_t r = 0; r < seconds.size(); ++r) {
        csv.row({w.name, algorithm,
                 CsvWriter::cell(static_cast<std::int64_t>(r)),
                 CsvWriter::cell(seconds[r])});
      }
      const MeanStd ms = mean_std(seconds);
      return ms.mean > 0 ? 100.0 * ms.stddev / ms.mean : 0.0;
    };
    const double graft_psi = psi(
        "graft",
        time_matching_runs(w.graph, runs,
                           [&](const BipartiteGraph& g, Matching& m) {
                             return ms_bfs_graft(g, m, config);
                           })
            .seconds);
    const double pf_psi =
        psi("pf",
            time_matching_runs(w.graph, runs,
                               [&](const BipartiteGraph& g, Matching& m) {
                                 return pothen_fan(g, m, config);
                               })
                .seconds);
    const double pr_psi =
        psi("pr",
            time_matching_runs(w.graph, runs,
                               [&](const BipartiteGraph& g, Matching& m) {
                                 return push_relabel(g, m, config);
                               })
                .seconds);
    std::printf("%-18s %10.1f %10.1f %10.1f\n", w.name.c_str(), graft_psi,
                pf_psi, pr_psi);
    sum_graft += graft_psi;
    sum_pf += pf_psi;
    sum_pr += pr_psi;
  }

  const double count = static_cast<double>(workloads.size());
  std::printf("%s\n%-18s %10.1f %10.1f %10.1f\n", std::string(52, '-').c_str(),
              "average", sum_graft / count, sum_pf / count, sum_pr / count);
  std::printf("csv: %s\n", csv.path().c_str());
  std::printf("\npaper averages at 40 threads: Graft 6%%, PF 17%%, PR "
              "10%%.\n");
  return 0;
}
