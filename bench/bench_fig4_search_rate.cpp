// Fig. 4 reproduction: search rate (MTEPS) of MS-BFS-Graft vs
// Pothen-Fan on every suite graph.
//
// Search rate = traversed edges / runtime (augmentation time included),
// exactly the paper's Sec. V-C definition. Expected shape: Graft's rate
// is 2-12x PF's, with the largest gaps on low-matching-number graphs
// (the paper highlights wikipedia 12x, web-Google 10x).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graftmatch;
  using namespace graftmatch::bench;
  bench_entry(argc, argv, "bench_fig4_search_rate",
               "Fig. 4 (search rate in MTEPS, MS-BFS-Graft vs Pothen-Fan)");

  const int runs = run_count(3);
  const std::vector<Workload> workloads = make_suite_workloads(false);
  // The graft arm honors --kernel so a kernel A/B is two invocations of
  // this bench with the same roster (the arm lands in the CSV for the
  // join); Pothen-Fan has no bottom-up kernel and ignores it. Each
  // rate is the fastest of `runs` runs; the [min-max] seconds show how
  // far the others strayed.
  const BottomUpKernel kernel = bottom_up_kernel();
  CsvWriter csv("fig4_search_rate",
                {"instance", "class", "kernel", "graft_mteps", "pf_mteps",
                 "graft_seconds", "graft_max_seconds", "pf_seconds",
                 "pf_max_seconds", "cardinality"});

  std::printf("%-18s %-11s %12s %12s %8s %28s %28s\n", "instance", "class",
              "Graft MTEPS", "PF MTEPS", "ratio", "Graft best [min-max]",
              "PF best [min-max]");
  std::printf("%s\n", std::string(123, '-').c_str());

  // Consistency gate: both solvers compute MAXIMUM matchings, so their
  // cardinalities must agree on every instance. A perf number from a
  // run that got the answer wrong is worse than no number, so CI treats
  // a mismatch as a hard failure (nonzero exit).
  int mismatches = 0;
  for (const Workload& w : workloads) {
    RunConfig config;  // all threads
    config.bottom_up_kernel = kernel;
    const TimedResult graft = time_matching_runs(
        w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
          return ms_bfs_graft(g, m, config);
        });
    const TimedResult pf = time_matching_runs(
        w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
          return pothen_fan(g, m, config);
        });
    const double graft_rate = graft.fastest.mteps();
    const double pf_rate = pf.fastest.mteps();
    const std::int64_t graft_cardinality = graft.fastest.final_cardinality;
    const std::int64_t pf_cardinality = pf.fastest.final_cardinality;
    if (graft_cardinality != pf_cardinality) {
      ++mismatches;
      std::fprintf(stderr,
                   "CARDINALITY MISMATCH on %s: ms_bfs_graft=%lld "
                   "pothen_fan=%lld\n",
                   w.name.c_str(),
                   static_cast<long long>(graft_cardinality),
                   static_cast<long long>(pf_cardinality));
    }
    std::printf("%-18s %-11s %12.2f %12.2f %7.2fx %28s %28s\n",
                w.name.c_str(), to_string(w.graph_class).c_str(), graft_rate,
                pf_rate, pf_rate > 0 ? graft_rate / pf_rate : 0.0,
                format_arm(graft.seconds).c_str(),
                format_arm(pf.seconds).c_str());
    csv.row({w.name, to_string(w.graph_class), to_string(kernel),
             CsvWriter::cell(graft_rate), CsvWriter::cell(pf_rate),
             CsvWriter::cell(best_seconds(graft.seconds)),
             CsvWriter::cell(worst_seconds(graft.seconds)),
             CsvWriter::cell(best_seconds(pf.seconds)),
             CsvWriter::cell(worst_seconds(pf.seconds)),
             CsvWriter::cell(graft_cardinality)});
  }
  std::printf("csv: %s\n", csv.path().c_str());

  std::printf("\nratio > 1 means MS-BFS-Graft searches faster; the paper "
              "reports 2-12x with the\nlargest ratios on the web class.\n");
  if (mismatches != 0) {
    std::fprintf(stderr, "%d instance(s) failed the cardinality gate\n",
                 mismatches);
    return 1;
  }
  return 0;
}
