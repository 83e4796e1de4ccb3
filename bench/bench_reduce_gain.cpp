// Kernelization gain: does the degree-1 pre-pass pay for itself END TO
// END?
//
// For every suite instance, compares
//   none: init + MS-BFS-Graft on the original graph
//   d1  : reduce + init + solve on the kernel + reconstruct
// with identical initializer/seed/thread settings, both arms timed
// wall-to-wall through engine::run. The arms alternate run by run
// (none/d1, then d1/none, ...) so drift in machine state -- warm
// caches, frequency, neighbors on a shared host -- lands on both arms
// alike instead of biasing whichever arm runs second. Reports the
// kernel shape, per-stage reduction times, each arm's best time with
// its min-max range, and the end-to-end speedup of the bests; the CSV
// artifact (bench_reduce_gain.csv) is the kernelization-stats record
// CI uploads. Both arms must agree on the matching cardinality -- a
// mismatch exits non-zero, so the smoke run doubles as a correctness
// gate.
//
// Web-crawl-shaped and low-matching-number instances have
// pendant-heavy fringes and shrink the most; near-regular instances are
// identity kernels, so their two arms run the same solve and their
// spread is the bench's noise floor. docs/REDUCTIONS.md records the
// measured table.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graftmatch;
  using namespace graftmatch::bench;
  bench_entry(argc, argv, "bench_reduce_gain",
              "kernelization pre-pass gain (end-to-end --reduce=none vs "
              "d1, MS-BFS-Graft, arms alternated per run)");

  const int runs = run_count(3);
  CsvWriter csv("bench_reduce_gain",
                {"instance", "class", "nx", "ny", "edges", "kernel_nx",
                 "kernel_ny", "kernel_edges", "rounds", "isolated", "forced",
                 "reduce_seconds", "compact_seconds", "reconstruct_seconds",
                 "base_seconds", "base_max_seconds", "reduced_seconds",
                 "reduced_max_seconds", "speedup", "cardinality"});

  bool all_consistent = true;
  std::printf("%-18s %11s %11s %34s %34s %8s\n", "instance", "edges",
              "kernel", "none best [min-max]", "d1 best [min-max]",
              "speedup");
  for (const Workload& w : make_suite_workloads(false)) {
    if (!instance_selected(w.name)) continue;
    TimedResult base;
    TimedResult arm;
    for (int r = 0; r < runs; ++r) {
      // Even runs time none first, odd runs d1 first.
      for (int k = 0; k < 2; ++k) {
        const bool reduced = (k == 0) == (r % 2 == 1);
        TimedResult& into = reduced ? arm : base;
        const TimedResult one = time_reduced_runs(
            w.graph, 1, "graft",
            reduced ? ReduceMode::kDegree1 : ReduceMode::kNone);
        keep_if_fastest(into, one.seconds.front(), one.fastest);
      }
    }
    const double base_seconds = best_seconds(base.seconds);
    const double arm_seconds = best_seconds(arm.seconds);
    const ReduceCounters& r = arm.fastest.reduce;
    const double speedup =
        arm_seconds > 0.0 ? base_seconds / arm_seconds : 0.0;
    if (arm.fastest.final_cardinality != base.fastest.final_cardinality) {
      std::fprintf(stderr,
                   "CARDINALITY MISMATCH on %s: reduced %lld vs baseline "
                   "%lld\n",
                   w.name.c_str(),
                   static_cast<long long>(arm.fastest.final_cardinality),
                   static_cast<long long>(base.fastest.final_cardinality));
      all_consistent = false;
    }
    std::printf("%-18s %11lld %11lld %34s %34s %7.2fx\n", w.name.c_str(),
                static_cast<long long>(w.graph.num_edges()),
                static_cast<long long>(r.kernel_edges),
                format_arm(base.seconds).c_str(),
                format_arm(arm.seconds).c_str(), speedup);
    csv.row({w.name, to_string(w.graph_class),
             CsvWriter::cell(static_cast<std::int64_t>(w.graph.num_x())),
             CsvWriter::cell(static_cast<std::int64_t>(w.graph.num_y())),
             CsvWriter::cell(w.graph.num_edges()),
             CsvWriter::cell(static_cast<std::int64_t>(r.kernel_nx)),
             CsvWriter::cell(static_cast<std::int64_t>(r.kernel_ny)),
             CsvWriter::cell(r.kernel_edges), CsvWriter::cell(r.rounds),
             CsvWriter::cell(r.isolated_x + r.isolated_y),
             CsvWriter::cell(r.forced_matches),
             CsvWriter::cell(r.reduce_seconds),
             CsvWriter::cell(r.compact_seconds),
             CsvWriter::cell(r.reconstruct_seconds),
             CsvWriter::cell(base_seconds),
             CsvWriter::cell(worst_seconds(base.seconds)),
             CsvWriter::cell(arm_seconds),
             CsvWriter::cell(worst_seconds(arm.seconds)),
             CsvWriter::cell(speedup),
             CsvWriter::cell(arm.fastest.final_cardinality)});
  }
  std::printf("\ncsv: %s\n", csv.path().c_str());
  return all_consistent ? 0 : 1;
}
