// Fig. 3 reproduction: relative performance of MS-BFS-Graft, PF and PR
// with 1 thread and with all available threads.
//
// For every graph, each algorithm's mean runtime over GRAFTMATCH_RUNS
// runs is reported relative to the slowest algorithm on that graph
// (slowest = 1.0, the paper's convention), followed by per-class and
// overall geometric means of MS-BFS-Graft's speedup over PF and PR.
//
// Expected shape (paper Sec. V-A): Graft ~5-11x over the others overall,
// with the biggest wins on the web class (low matching number) and the
// smallest on the scientific class.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace graftmatch;
using namespace graftmatch::bench;

struct AlgoResult {
  double mean_seconds = 0.0;
};

double run_mean(const BipartiteGraph& g, int runs,
                const std::function<RunStats(const BipartiteGraph&,
                                             Matching&)>& run) {
  return mean_std(time_matching_runs(g, runs, run).seconds).mean;
}

}  // namespace

int main(int argc, char** argv) {
  bench_entry(argc, argv, "bench_fig3_relative_performance",
               "Fig. 3 (relative performance of matching algorithms with "
               "1 thread and all threads)");

  const int runs = run_count(3);
  const int max_threads = omp_get_num_procs();
  const std::vector<Workload> workloads = make_suite_workloads(false);
  CsvWriter csv("fig3_relative_performance",
                {"threads", "instance", "class", "graft_seconds",
                 "pf_seconds", "pr_seconds"});

  // speedup_of_graft[class][competitor] accumulates log-speedups.
  std::map<std::string, std::map<std::string, std::vector<double>>> gains;

  for (const int threads : {1, max_threads}) {
    std::printf("--- %d thread%s (relative speedup; slowest algorithm on "
                "each graph = 1.0)\n",
                threads, threads == 1 ? "" : "s");
    std::printf("%-18s %12s %12s %12s   %s\n", "instance", "MS-BFS-Graft",
                "PF", "PR", "winner");

    for (const Workload& w : workloads) {
      RunConfig config;
      config.threads = threads;

      const engine::SolverInfo& graft = engine::find_solver("graft");
      const engine::SolverInfo& pf = engine::find_solver("pf");
      const engine::SolverInfo& pr = engine::find_solver("pr");
      const double graft_s = run_mean(
          w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
            return graft.run(g, m, config);
          });
      const double pf_s = run_mean(
          w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
            return pf.run(g, m, config);
          });
      const double pr_s = run_mean(
          w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
            return pr.run(g, m, config);
          });

      const double slowest = std::max({graft_s, pf_s, pr_s});
      const char* winner = graft_s <= pf_s && graft_s <= pr_s
                               ? "Graft"
                               : (pf_s <= pr_s ? "PF" : "PR");
      std::printf("%-18s %12.2f %12.2f %12.2f   %s\n", w.name.c_str(),
                  slowest / graft_s, slowest / pf_s, slowest / pr_s, winner);
      csv.row({CsvWriter::cell(static_cast<std::int64_t>(threads)), w.name,
               to_string(w.graph_class), CsvWriter::cell(graft_s),
               CsvWriter::cell(pf_s), CsvWriter::cell(pr_s)});

      if (threads == max_threads) {
        const std::string cls = to_string(w.graph_class);
        gains[cls]["PF"].push_back(pf_s / graft_s);
        gains[cls]["PR"].push_back(pr_s / graft_s);
        gains["ALL"]["PF"].push_back(pf_s / graft_s);
        gains["ALL"]["PR"].push_back(pr_s / graft_s);
      }
    }
    std::printf("\n");
  }

  std::printf("--- MS-BFS-Graft speedup over competitors at %d threads "
              "(geometric mean)\n",
              max_threads);
  std::printf("%-12s %10s %10s\n", "class", "vs PF", "vs PR");
  for (const auto& [cls, per_algo] : gains) {
    double log_pf = 0.0;
    double log_pr = 0.0;
    for (const double v : per_algo.at("PF")) log_pf += std::log(v);
    for (const double v : per_algo.at("PR")) log_pr += std::log(v);
    std::printf("%-12s %9.2fx %9.2fx\n", cls.c_str(),
                std::exp(log_pf / static_cast<double>(per_algo.at("PF").size())),
                std::exp(log_pr / static_cast<double>(per_algo.at("PR").size())));
  }
  std::printf("csv: %s\n", csv.path().c_str());
  return 0;
}
