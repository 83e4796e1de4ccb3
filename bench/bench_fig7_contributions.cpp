// Fig. 7 reproduction: performance contributions of direction-optimizing
// BFS and tree grafting over plain MS-BFS.
//
// For every suite graph, runs the four ablation corners of the
// algorithm: plain MS-BFS, +direction optimization, +grafting, and the
// full MS-BFS-Graft, and reports each variant's speedup over plain
// MS-BFS plus the traversed-edge counts (the mechanism behind the
// speedup). Expected shape (paper Sec. V-F): direction optimization
// ~1.6x, grafting ~3x on top, biggest on low-matching-number graphs
// (up to ~7.8x).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graftmatch;
  using namespace graftmatch::bench;
  bench_entry(argc, argv, "bench_fig7_contributions",
               "Fig. 7 (effect of direction-optimizing BFS and tree "
               "grafting on MS-BFS)");

  const int runs = run_count(3);
  const std::vector<Workload> workloads = make_suite_workloads(false);
  CsvWriter csv("fig7_contributions",
                {"instance", "class", "variant", "seconds",
                 "speedup_vs_plain", "edges_traversed"});

  struct Variant {
    const char* name;
    bool dirop;
    bool graft;
  };
  const std::vector<Variant> variants = {
      {"MS-BFS", false, false},
      {"+DirOpt", true, false},
      {"+Graft", false, true},
      {"+Both", true, true},
  };

  std::printf("%-18s", "instance");
  for (const Variant& v : variants) std::printf(" %9s", v.name);
  std::printf("   %12s %12s\n", "edges(plain)", "edges(both)");
  std::printf("%s\n", std::string(86, '-').c_str());

  std::vector<double> log_dirop;
  std::vector<double> log_graft;
  std::vector<double> log_both;
  std::vector<double> log_edge_ratio;

  for (const Workload& w : workloads) {
    double base_seconds = 0.0;
    std::int64_t base_edges = 0;
    std::int64_t both_edges = 0;
    std::printf("%-18s", w.name.c_str());
    double dirop_speedup = 0.0;
    double graft_speedup = 0.0;
    double both_speedup = 0.0;
    for (const Variant& v : variants) {
      RunConfig config;
      config.direction_optimizing = v.dirop;
      config.tree_grafting = v.graft;
      const TimedResult timed = time_matching_runs(
          w.graph, runs, [&](const BipartiteGraph& g, Matching& m) {
            return ms_bfs_graft(g, m, config);
          });
      const double mean = mean_std(timed.seconds).mean;
      if (!v.dirop && !v.graft) {
        base_seconds = mean;
        base_edges = timed.fastest.edges_traversed;
      }
      if (v.dirop && v.graft) both_edges = timed.fastest.edges_traversed;
      const double speedup = base_seconds / mean;
      if (v.dirop && !v.graft) dirop_speedup = speedup;
      if (!v.dirop && v.graft) graft_speedup = speedup;
      if (v.dirop && v.graft) both_speedup = speedup;
      std::printf(" %8.2fx", speedup);
      csv.row({w.name, to_string(w.graph_class), v.name,
               CsvWriter::cell(mean), CsvWriter::cell(speedup),
               CsvWriter::cell(timed.fastest.edges_traversed)});
    }
    std::printf("   %12lld %12lld\n", static_cast<long long>(base_edges),
                static_cast<long long>(both_edges));
    log_dirop.push_back(std::log(dirop_speedup));
    log_graft.push_back(std::log(graft_speedup));
    log_both.push_back(std::log(both_speedup));
    log_edge_ratio.push_back(std::log(static_cast<double>(base_edges) /
                                      static_cast<double>(both_edges)));
  }

  const auto geomean = [](const std::vector<double>& logs) {
    double sum = 0.0;
    for (const double v : logs) sum += v;
    return std::exp(sum / static_cast<double>(logs.size()));
  };
  std::printf("\ngeometric means over all instances: +DirOpt %.2fx, "
              "+Graft %.2fx, +Both %.2fx,\nedge-traversal reduction "
              "(plain/both) %.2fx\n(paper: ~1.6x direction optimization, "
              "~3x additional from grafting, at 40 threads;\non a 1-core "
              "substrate the synchronization savings vanish, so the "
              "edge-traversal\nreduction is the hardware-independent "
              "signal -- largest on the web class.)\n",
              geomean(log_dirop), geomean(log_graft), geomean(log_both),
              geomean(log_edge_ratio));
  std::printf("csv: %s\n", csv.path().c_str());
  return 0;
}
