#include "bench_common.hpp"

#include <omp.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "graftmatch/runtime/cli.hpp"

namespace graftmatch::bench {
namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return (end != value && parsed > 0.0) ? parsed : fallback;
}

[[noreturn]] void usage_and_exit(const char* binary, const char* bad_arg) {
  std::string inits;
  for (const auto& init : engine::initializer_registry()) {
    inits += (inits.empty() ? "" : "|") + init.name;
  }
  std::fprintf(stderr,
               "unknown argument '%s'\n"
               "usage: %s [--seed N] [--threads N] [--size F] [--runs N]\n"
               "          [--batch B] [--batches N] [--window F]\n"
               "          [--init %s]\n"
               "          [--reduce none|d1]\n"
               "          [--kernel bit|word]\n"
               "          [--only SUBSTR] [--results-dir DIR]\n"
               "Each flag overrides the matching GRAFTMATCH_* environment "
               "variable.\n",
               bad_arg, binary, inits.c_str());
  std::exit(2);
}

/// Numeric flags fail fast on garbage values; before this check a typo
/// like "--runs 1O" silently fell back to the default via strtod.
void validate_flag_value(const char* flag, const char* value) {
  const std::string name = flag;
  if (name == "--seed") {
    cli::parse_uint_arg(flag, value);
  } else if (name == "--threads") {
    cli::parse_int_arg(flag, value, 0, 65536);
  } else if (name == "--runs") {
    cli::parse_int_arg(flag, value, 1, 1000000);
  } else if (name == "--size") {
    cli::parse_double_arg(flag, value, 1e-9, 1e9);
  } else if (name == "--batch") {
    cli::parse_int_arg(flag, value, 1, 1 << 24);
  } else if (name == "--batches") {
    cli::parse_int_arg(flag, value, 1, 1000000);
  } else if (name == "--window") {
    cli::parse_double_arg(flag, value, 1e-9, 1.0);
  } else if (name == "--reduce") {
    ReduceMode mode;
    if (!parse_reduce_mode(value, mode)) {
      std::fprintf(stderr,
                   "bad value '%s' for --reduce (none | d1)\n", value);
      std::exit(2);
    }
  } else if (name == "--kernel") {
    BottomUpKernel kernel;
    if (!parse_bottom_up_kernel(value, kernel)) {
      std::fprintf(stderr, "bad value '%s' for --kernel (bit | word)\n",
                   value);
      std::exit(2);
    }
  }
  // --init, --only, and --results-dir take free-form
  // strings; the registry lookups validate the names where they are
  // consumed.
}

}  // namespace

void apply_cli_overrides(int argc, char** argv) {
  // Flag name -> the env knob it overrides. The env accessors below are
  // the only readers, so CLI and environment cannot disagree.
  static const struct { const char* flag; const char* env; } kFlags[] = {
      {"--seed", "GRAFTMATCH_SEED"},
      {"--threads", "GRAFTMATCH_THREADS"},
      {"--size", "GRAFTMATCH_SIZE"},
      {"--runs", "GRAFTMATCH_RUNS"},
      {"--batch", "GRAFTMATCH_BATCH"},
      {"--batches", "GRAFTMATCH_BATCHES"},
      {"--window", "GRAFTMATCH_WINDOW"},
      {"--init", "GRAFTMATCH_INIT"},
      {"--reduce", "GRAFTMATCH_REDUCE"},
      {"--kernel", "GRAFTMATCH_KERNEL"},
      {"--only", "GRAFTMATCH_ONLY"},
      {"--results-dir", "GRAFTMATCH_RESULTS_DIR"},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool matched = false;
    for (const auto& [flag, env] : kFlags) {
      const std::size_t flag_len = std::strlen(flag);
      if (arg == flag) {  // two-token form: --seed 7
        if (i + 1 >= argc) usage_and_exit(argv[0], arg.c_str());
        validate_flag_value(flag, argv[i + 1]);
        ::setenv(env, argv[++i], /*overwrite=*/1);
        matched = true;
        break;
      }
      if (arg.compare(0, flag_len, flag) == 0 && arg.size() > flag_len &&
          arg[flag_len] == '=') {  // one-token form: --seed=7
        validate_flag_value(flag, arg.c_str() + flag_len + 1);
        ::setenv(env, arg.c_str() + flag_len + 1, /*overwrite=*/1);
        matched = true;
        break;
      }
    }
    if (!matched) usage_and_exit(argv[0], arg.c_str());
  }
  if (const int threads = thread_override(); threads > 0) {
    omp_set_num_threads(threads);
  }
}

int thread_override() {
  return static_cast<int>(env_double("GRAFTMATCH_THREADS", 0.0));
}

// Default 0.25: the quarter-scale workloads EXPERIMENTS.md records,
// sized so the full sweep finishes in minutes on a single core. Set
// GRAFTMATCH_SIZE=1 (or higher) for UF-collection-scale runs.
double size_factor() { return env_double("GRAFTMATCH_SIZE", 0.25); }

int run_count(int fallback) {
  return static_cast<int>(env_double("GRAFTMATCH_RUNS",
                                     static_cast<double>(fallback)));
}

std::uint64_t seed() {
  return static_cast<std::uint64_t>(env_double("GRAFTMATCH_SEED", 1.0));
}

std::string init_name() {
  const char* value = std::getenv("GRAFTMATCH_INIT");
  return value != nullptr ? value : "rgreedy";
}

bool instance_selected(const std::string& name) {
  const char* filter = std::getenv("GRAFTMATCH_ONLY");
  if (filter == nullptr || filter[0] == '\0') return true;
  return name.find(filter) != std::string::npos;
}

int churn_batch_size() {
  return static_cast<int>(env_double("GRAFTMATCH_BATCH", 0.0));
}

int churn_batch_count(int fallback) {
  return static_cast<int>(
      env_double("GRAFTMATCH_BATCHES", static_cast<double>(fallback)));
}

double churn_window_fraction(double fallback) {
  return env_double("GRAFTMATCH_WINDOW", fallback);
}

ReduceMode reduce_mode() {
  const char* value = std::getenv("GRAFTMATCH_REDUCE");
  if (value == nullptr) return ReduceMode::kNone;
  ReduceMode mode;
  if (!parse_reduce_mode(value, mode)) {
    std::fprintf(stderr,
                 "bad value '%s' for GRAFTMATCH_REDUCE (none | d1)\n",
                 value);
    std::exit(2);
  }
  return mode;
}

BottomUpKernel bottom_up_kernel() {
  const char* value = std::getenv("GRAFTMATCH_KERNEL");
  if (value == nullptr) return BottomUpKernel::kBit;
  BottomUpKernel kernel;
  if (!parse_bottom_up_kernel(value, kernel)) {
    std::fprintf(stderr, "bad value '%s' for GRAFTMATCH_KERNEL (bit | word)\n",
                 value);
    std::exit(2);
  }
  return kernel;
}

Matching make_initial_matching(const BipartiteGraph& g) {
  RunConfig config;
  config.seed = seed();
  config.threads = thread_override();
  try {
    return engine::make_initial_matching(init_name(), g, config);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

void bench_entry(int argc, char** argv, const std::string& bench_name,
                 const std::string& what) {
  apply_cli_overrides(argc, argv);
  print_header(bench_name, what);
}

void print_header(const std::string& bench_name, const std::string& what) {
  const SystemInfo info = query_system_info();
  std::printf("==== %s ====\n", bench_name.c_str());
  std::printf("reproduces: %s\n", what.c_str());
  std::printf("substrate : %s, %d logical CPUs, OpenMP max threads %d\n",
              info.cpu_model.c_str(), info.logical_cpus,
              info.openmp_max_threads);
  const std::string threads =
      thread_override() > 0 ? std::to_string(thread_override()) : "default";
  std::printf(
      "workload  : size factor %.3g, seed %llu, initializer %s, threads %s, "
      "reduce %s, kernel %s\n\n",
      size_factor(), static_cast<unsigned long long>(seed()),
      init_name().c_str(), threads.c_str(), to_string(reduce_mode()).c_str(),
      to_string(bottom_up_kernel()).c_str());
}

std::vector<Workload> make_suite_workloads(bool with_matching_number) {
  std::vector<Workload> workloads;
  const double factor = size_factor();
  const std::uint64_t s = seed();
  for (const SuiteInstance& instance : benchmark_suite()) {
    Workload w;
    w.name = instance.name;
    w.paper_name = instance.paper_name;
    w.graph_class = instance.graph_class;
    w.graph = instance.factory(factor, s);
    if (with_matching_number) {
      const auto maximum = maximum_matching_cardinality(w.graph);
      const auto n =
          static_cast<double>(w.graph.num_x() + w.graph.num_y());
      w.matching_fraction = n > 0 ? 2.0 * static_cast<double>(maximum) / n : 0;
    }
    workloads.push_back(std::move(w));
  }
  return workloads;
}

Workload make_workload(const std::string& name) {
  const SuiteInstance& instance = suite_instance(name);
  Workload w;
  w.name = instance.name;
  w.paper_name = instance.paper_name;
  w.graph_class = instance.graph_class;
  w.graph = instance.factory(size_factor(), seed());
  return w;
}

struct CsvWriter::Impl {
  std::string path;
  std::ofstream out;
  std::size_t columns = 0;
};

CsvWriter::CsvWriter(const std::string& bench_name,
                     const std::vector<std::string>& columns)
    : impl_(new Impl) {
  const char* dir_env = std::getenv("GRAFTMATCH_RESULTS_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : "bench_results";
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
  impl_->path = dir + "/" + bench_name + ".csv";
  impl_->out.open(impl_->path);
  impl_->columns = columns.size();
  if (impl_->out) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      impl_->out << (i ? "," : "") << columns[i];
    }
    impl_->out << '\n';
  }
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (!impl_->out) return;  // unwritable results dir: stdout still works
  if (fields.size() != impl_->columns) {
    throw std::logic_error("CsvWriter: column count mismatch in " +
                           impl_->path);
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    impl_->out << (i ? "," : "") << fields[i];
  }
  impl_->out << '\n';
}

std::string CsvWriter::cell(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

std::string CsvWriter::cell(std::int64_t value) {
  return std::to_string(value);
}

const std::string& CsvWriter::path() const { return impl_->path; }

MeanStd mean_std(const std::vector<double>& samples) {
  MeanStd result;
  if (samples.empty()) return result;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  result.mean = sum / static_cast<double>(samples.size());
  double sq = 0.0;
  for (const double s : samples) {
    sq += (s - result.mean) * (s - result.mean);
  }
  result.stddev = std::sqrt(sq / static_cast<double>(samples.size()));
  return result;
}

void keep_if_fastest(TimedResult& result, double seconds, RunStats stats) {
  if (result.seconds.empty() || seconds < best_seconds(result.seconds)) {
    result.fastest = std::move(stats);
  }
  result.seconds.push_back(seconds);
}

double best_seconds(const std::vector<double>& seconds) {
  return *std::min_element(seconds.begin(), seconds.end());
}

double worst_seconds(const std::vector<double>& seconds) {
  return *std::max_element(seconds.begin(), seconds.end());
}

std::string format_arm(const std::vector<double>& seconds) {
  return format_seconds(best_seconds(seconds)) + " [" +
         format_seconds(best_seconds(seconds)) + "-" +
         format_seconds(worst_seconds(seconds)) + "]";
}

TimedResult time_matching_runs(
    const BipartiteGraph& g, int runs,
    const std::function<RunStats(const BipartiteGraph&, Matching&)>& run) {
  TimedResult result;
  // Identical start for every run, so timing differences come from the
  // algorithm, not the initializer.
  const Matching initial = make_initial_matching(g);
  for (int r = 0; r < runs; ++r) {
    Matching matching = initial;
    RunStats stats = run(g, matching);
    keep_if_fastest(result, stats.seconds, std::move(stats));
  }
  return result;
}

TimedResult time_reduced_runs(const BipartiteGraph& g, int runs,
                              const std::string& solver, ReduceMode mode) {
  TimedResult result;
  RunConfig config;
  config.seed = seed();
  config.threads = thread_override();
  config.reduce = mode;
  config.bottom_up_kernel = bottom_up_kernel();
  const std::string init = init_name();
  for (int r = 0; r < runs; ++r) {
    Matching matching(g.num_x(), g.num_y());
    const Timer timer;
    RunStats stats;
    try {
      stats = engine::run(solver, init, g, matching, config);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s\n", error.what());
      std::exit(2);
    }
    keep_if_fastest(result, timer.elapsed(), std::move(stats));
  }
  return result;
}

}  // namespace graftmatch::bench
