// Ablation: sensitivity to the alpha parameter.
//
// Alpha controls both the top-down/bottom-up switch and the
// graft-vs-rebuild decision (Sec. III-B: "we found that alpha ~= 5
// performs better for the MS-BFS-Graft algorithm"). This bench sweeps
// alpha and reports runtime and traversed edges on one fig4-roster
// instance per class, reproducing the design-choice evidence behind
// that sentence.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graftmatch;
  using namespace graftmatch::bench;
  bench_entry(argc, argv, "bench_ablation_alpha",
               "Sec. III-B design choice (alpha ~= 5): runtime and edge "
               "traversals vs alpha");

  const int runs = run_count(3);
  const std::vector<double> alphas = {1.5, 2.0, 3.0, 5.0, 8.0, 16.0, 64.0};
  const std::vector<std::string> graphs = {"hugetrace-like", "copapers-like",
                                           "wikipedia-like"};
  CsvWriter csv("ablation_alpha",
                {"instance", "class", "alpha", "seconds", "edges", "phases",
                 "bottom_up_levels", "switches", "cardinality"});

  for (const std::string& name : graphs) {
    const Workload w = make_workload(name);
    std::printf("--- %s\n", w.name.c_str());
    std::printf("%8s %12s %14s %8s %6s\n", "alpha", "time", "edges",
                "phases", "b-up");
    for (const double alpha : alphas) {
      RunConfig config;
      config.alpha = alpha;
      config.bottom_up_kernel = bottom_up_kernel();
      const TimedResult timed = time_matching_runs(
          w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
            return ms_bfs_graft(g, m, config);
          });
      const RunStats& stats = timed.fastest;
      std::printf("%8.1f %12s %14lld %8lld %6lld\n", alpha,
                  format_seconds(mean_std(timed.seconds).mean).c_str(),
                  static_cast<long long>(stats.edges_traversed),
                  static_cast<long long>(stats.phases),
                  static_cast<long long>(stats.direction.bottom_up_levels));
      csv.row({w.name, to_string(w.graph_class), CsvWriter::cell(alpha),
               CsvWriter::cell(mean_std(timed.seconds).mean),
               CsvWriter::cell(stats.edges_traversed),
               CsvWriter::cell(stats.phases),
               CsvWriter::cell(stats.direction.bottom_up_levels),
               CsvWriter::cell(stats.direction.switches),
               CsvWriter::cell(stats.final_cardinality)});
    }
    std::printf("\n");
  }
  std::printf("csv: %s\n", csv.path().c_str());
  return 0;
}
