// Shared helpers for the figure/table reproduction benches.
//
// Environment knobs (all optional):
//   GRAFTMATCH_SIZE    -- workload size factor (default 0.25, the scale
//                         EXPERIMENTS.md records; 1.0 approximates the
//                         paper's UF-collection sizes)
//   GRAFTMATCH_RUNS    -- repetitions per timing (default: per-bench)
//   GRAFTMATCH_SEED    -- generator seed (default 1)
//   GRAFTMATCH_RESULTS_DIR -- directory for the CSV artifacts every
//                         figure bench writes next to its stdout
//                         (default "bench_results/")
//   GRAFTMATCH_INIT    -- initializer: rgreedy (default) | greedy | ks |
//                         ksr1 | none. The paper initializes with Karp-Sipser,
//                         but full-cascade KS is already optimal on the
//                         synthetic stand-in graphs (see DESIGN.md); the
//                         randomized-greedy default preserves the
//                         post-initialization workload the paper's
//                         figures measure. bench_ablation_init
//                         quantifies the difference explicitly.
//   GRAFTMATCH_REDUCE  -- kernelization pre-pass: none (default) | d1,
//                         shown in the bench header. bench_reduce_gain
//                         measures both arms explicitly regardless of
//                         this knob.
//   GRAFTMATCH_KERNEL  -- bottom-up kernel: bit (default, per-bit
//                         candidate-pool scan) | word (64-candidate
//                         ctz sweep with word-granular claims). Honored
//                         by benches that time through time_reduced_runs
//                         and by bench_fig4 and bench_ablation_alpha.
//   GRAFTMATCH_ONLY    -- substring filter on instance names; benches
//                         that honor it skip non-matching workloads
//                         (empty/unset = run everything).
//   GRAFTMATCH_BATCH   -- edges per churn batch for bench_churn
//                         (unset = the bench's default batch-size
//                         sweep 1,4,16,64,256).
//   GRAFTMATCH_BATCHES -- churn batches per (instance, batch-size)
//                         cell (default: per-bench).
//   GRAFTMATCH_WINDOW  -- fraction of each instance's edges cycled by
//                         the churn window, in (0, 1] (default:
//                         per-bench).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graftmatch/graftmatch.hpp"

namespace graftmatch::bench {

/// Parse CLI overrides: --seed=N, --threads=N, --size=F, --runs=N,
/// --init=NAME, --results-dir=DIR (the "--seed N" two-token form works
/// too). Each override is exported through the matching GRAFTMATCH_*
/// environment knob, so the env-reading accessors below stay the single
/// source of truth and the stress/diff corpora (which honor
/// GRAFTMATCH_SEED) share one instance-generation path with the
/// benches. --threads additionally sets the OpenMP default so benches
/// that run at the runtime thread count pick it up. Unknown --options
/// print usage and exit; call first thing in main().
void apply_cli_overrides(int argc, char** argv);

/// The standard bench preamble, all in one call: parse CLI overrides
/// and print the self-describing header. Every bench main() starts with
/// this single line instead of repeating the apply/print pair.
void bench_entry(int argc, char** argv, const std::string& bench_name,
                 const std::string& what);

/// Thread-count override from --threads / GRAFTMATCH_THREADS
/// (0 = keep the OpenMP runtime default).
int thread_override();

/// Workload size factor from GRAFTMATCH_SIZE (default 1.0).
double size_factor();

/// Repetition count from GRAFTMATCH_RUNS (default `fallback`).
int run_count(int fallback);

/// Seed from GRAFTMATCH_SEED (default 1).
std::uint64_t seed();

/// Name of the selected initializer (GRAFTMATCH_INIT). Any key of the
/// engine's initializer registry is accepted.
std::string init_name();

/// Substring filter on instance names from GRAFTMATCH_ONLY / --only.
/// Returns true when `name` should run (empty filter matches all).
bool instance_selected(const std::string& name);

/// Edges per churn batch from GRAFTMATCH_BATCH / --batch
/// (0 = unset: the bench runs its default batch-size sweep).
int churn_batch_size();

/// Churn batches per cell from GRAFTMATCH_BATCHES / --batches
/// (default `fallback`).
int churn_batch_count(int fallback);

/// Churn-window fraction from GRAFTMATCH_WINDOW / --window, clamped by
/// the flag parser to (0, 1] (default `fallback`).
double churn_window_fraction(double fallback);

/// Kernelization mode from GRAFTMATCH_REDUCE / --reduce (default
/// kNone). Unknown values print an error and exit(2).
ReduceMode reduce_mode();

/// Bottom-up kernel arm from GRAFTMATCH_KERNEL / --kernel (default
/// kBit). Unknown values print an error and exit(2).
BottomUpKernel bottom_up_kernel();

/// Build the selected initial matching for a graph via the engine's
/// initializer registry (honoring the bench seed and thread override).
/// Unknown initializer names print the registry's error and exit(2).
Matching make_initial_matching(const BipartiteGraph& g);

/// Print the standard bench header (binary name, substrate info,
/// workload scale) so every output file is self-describing.
void print_header(const std::string& bench_name, const std::string& what);

/// A generated suite instance, cached with its stats.
struct Workload {
  std::string name;
  std::string paper_name;
  GraphClass graph_class;
  BipartiteGraph graph;
  double matching_fraction = 0.0;  ///< 2|M*|/n, the paper's Table II column
};

/// Generate every suite instance at the current size factor.
/// When `with_matching_number` is set, computes the maximum matching
/// fraction for each graph (Table II's last column).
std::vector<Workload> make_suite_workloads(bool with_matching_number);

/// Generate a single named instance.
Workload make_workload(const std::string& name);

/// Mean and standard deviation of a sample.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd mean_std(const std::vector<double>& samples);

/// Plot-ready artifact writer: one CSV per bench under
/// $GRAFTMATCH_RESULTS_DIR (default "bench_results/", created on
/// demand). Columns are written with a header row; every figure bench
/// emits its series here in addition to the human-readable stdout.
class CsvWriter {
 public:
  /// Opens <results_dir>/<name>.csv and writes the header row.
  CsvWriter(const std::string& bench_name,
            const std::vector<std::string>& columns);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Append one row; fields are written verbatim (quote your own
  /// commas). Must match the header's column count.
  void row(const std::vector<std::string>& fields);

  /// Convenience for numeric cells.
  static std::string cell(double value);
  static std::string cell(std::int64_t value);

  /// Path of the file being written (for the stdout footer).
  const std::string& path() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Time `run` (which must return RunStats) `runs` times on fresh
/// copies of one initial matching; returns per-run total seconds and
/// the stats of the fastest run.
struct TimedResult {
  std::vector<double> seconds;
  RunStats fastest;
};

/// Append one run's `seconds` to `result`, keeping `stats` as
/// `result.fastest` when this run is the fastest so far.
void keep_if_fastest(TimedResult& result, double seconds, RunStats stats);

/// Best-of-N seconds (the minimum: on a shared machine any excess over
/// it is interference, not algorithm) and the slowest run.
double best_seconds(const std::vector<double>& seconds);
double worst_seconds(const std::vector<double>& seconds);

/// "best [min-max]" -- the min is the best, so the range shows how far
/// the slowest run strayed from it.
std::string format_arm(const std::vector<double>& seconds);

TimedResult time_matching_runs(
    const BipartiteGraph& g, int runs,
    const std::function<RunStats(const BipartiteGraph&, Matching&)>& run);

/// Time `runs` END-TO-END executions of registry solver `solver`
/// through engine::run with the given kernelization mode: reduce,
/// initialize (GRAFTMATCH_INIT), solve the kernel, and reconstruct all
/// fall inside the timed window, so the numbers answer "was the
/// pre-pass worth it" rather than "is the kernel solve faster". kNone
/// degenerates to init + solve on the original graph.
TimedResult time_reduced_runs(const BipartiteGraph& g, int runs,
                              const std::string& solver, ReduceMode mode);

}  // namespace graftmatch::bench
