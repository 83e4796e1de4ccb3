// graftmatch command-line tool: compute a maximum matching (and
// optionally the Dulmage-Mendelsohn decomposition) of a Matrix Market
// file or a built-in generator instance.
//
// Usage:
//   ./matching_tool --mtx FILE [options]
//   ./matching_tool --gen INSTANCE [--size F] [options]
//
// Options:
//   --algo NAME     any solver-registry key (default graft; see --list)
//   --init NAME     any initializer-registry key (default rgreedy)
//   --reduce MODE   kernelization pre-pass: none | d1 (default none;
//                   also accepts --reduce=MODE). The solver runs on the
//                   kernel; the matching is reconstructed and verified
//                   on the original graph.
//   --kernel ARM    bottom-up kernel: bit | word (default bit; also
//                   accepts --kernel=ARM). word consumes the visited
//                   bitmap 64 candidates at a time with word-granular
//                   claims instead of the per-bit candidate pool.
//   --threads N     cap on the solve's OpenMP width (default: runtime
//                   default); small graphs run narrower (solve_width)
//   --alpha A       direction/grafting threshold (default 5)
//   --seed S        generator / initializer seed (default 1)
//   --dm            also print the coarse DM decomposition
//   --phases        print a per-phase table (MS-BFS-Graft only)
//   --churn N       dynamic-matching replay: solve once, then apply N
//                   alternating remove/re-add churn batches through the
//                   incremental DynamicMatcher (dynamic/), verifying
//                   the final matching as usual. Stats switch to the
//                   matcher's cumulative "dynamic" block.
//   --batch B       edges per churn batch (default 64; with --churn)
//   --json          print the run's stats as one JSON object
//   --trace FILE    write a Chrome trace_event JSON of the run
//                   (open in Perfetto / chrome://tracing)
//   --no-verify     skip the Koenig maximality certificate
//   --list          list generator instances, solvers and initializers
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/prng.hpp"

namespace {

using namespace graftmatch;

std::string joined_keys(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += out.empty() ? name : " | " + name;
  }
  return out;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--mtx FILE | --gen INSTANCE | --list) "
               "[--algo NAME] [--init NAME]\n"
               "       [--reduce MODE] [--kernel ARM]\n"
               "       [--threads N] [--alpha A] [--seed S]\n"
               "       [--size F] [--churn N] [--batch B] [--dm] [--phases] "
               "[--json] [--trace FILE]\n"
               "       [--no-verify]\n"
               "  --algo: %s\n"
               "  --init: %s\n"
               "  --reduce: none | d1\n"
               "  --kernel: bit | word\n",
               argv0, joined_keys(engine::solver_names()).c_str(),
               joined_keys(engine::initializer_names()).c_str());
  std::exit(2);
}

// Both lookups resolve through the engine registry, so the tool picks
// up newly registered solvers/initializers without edits here.
RunStats run_algorithm(const std::string& algo, const BipartiteGraph& g,
                       Matching& m, const RunConfig& config) {
  try {
    return engine::find_solver(algo).run(g, m, config);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

Matching make_initial(const std::string& init, const BipartiteGraph& g,
                      const RunConfig& config) {
  try {
    return engine::make_initial_matching(init, g, config);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string mtx_path;
  std::string gen_name;
  std::string algo = "graft";
  std::string init = "rgreedy";
  RunConfig config;
  std::uint64_t seed = 1;
  double size = 1.0;
  int churn_batches = 0;
  int churn_batch_size = 64;
  std::string trace_path;
  bool want_dm = false;
  bool want_phases = false;
  bool want_json = false;
  bool verify = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--mtx") mtx_path = next();
    else if (arg == "--gen") gen_name = next();
    else if (arg == "--algo") algo = next();
    else if (arg == "--init") init = next();
    else if (arg == "--threads") {
      config.threads =
          static_cast<int>(cli::parse_int_arg("--threads", next(), 0, 65536));
    }
    else if (arg == "--alpha") {
      config.alpha = cli::parse_double_arg("--alpha", next(), 1e-9, 1e18);
    }
    else if (arg == "--seed") seed = cli::parse_uint_arg("--seed", next());
    else if (arg == "--size") {
      size = cli::parse_double_arg("--size", next(), 0.0, 1e9);
    }
    else if (arg == "--churn") {
      churn_batches = static_cast<int>(
          cli::parse_int_arg("--churn", next(), 1, 1 << 20));
    }
    else if (arg == "--batch") {
      churn_batch_size = static_cast<int>(
          cli::parse_int_arg("--batch", next(), 1, 1 << 24));
    }
    else if (arg == "--reduce" || arg.rfind("--reduce=", 0) == 0) {
      const std::string value = arg == "--reduce" ? next() : arg.substr(9);
      if (!parse_reduce_mode(value, config.reduce)) {
        std::fprintf(stderr,
                     "error: unknown --reduce mode \"%s\" (none | d1)\n",
                     value.c_str());
        return 2;
      }
    }
    else if (arg == "--kernel" || arg.rfind("--kernel=", 0) == 0) {
      const std::string value = arg == "--kernel" ? next() : arg.substr(9);
      if (!parse_bottom_up_kernel(value, config.bottom_up_kernel)) {
        std::fprintf(stderr,
                     "error: unknown --kernel arm \"%s\" (bit | word)\n",
                     value.c_str());
        return 2;
      }
    }
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--dm") want_dm = true;
    else if (arg == "--phases") want_phases = true;
    else if (arg == "--json") want_json = true;
    else if (arg == "--no-verify") verify = false;
    else if (arg == "--list") {
      std::printf("generator instances:\n");
      for (const SuiteInstance& instance : benchmark_suite()) {
        std::printf("  %-20s %-12s (stands in for %s)\n",
                    instance.name.c_str(),
                    to_string(instance.graph_class).c_str(),
                    instance.paper_name.c_str());
      }
      std::printf("solvers (--algo):\n");
      for (const engine::SolverInfo& solver : engine::solver_registry()) {
        std::printf("  %-8s %-14s %s%s\n", solver.name.c_str(),
                    solver.display_name.c_str(), solver.description.c_str(),
                    solver.parallel ? "" : " [serial]");
      }
      std::printf("initializers (--init):\n");
      for (const engine::InitializerInfo& init :
           engine::initializer_registry()) {
        std::printf("  %-8s %s\n", init.name.c_str(),
                    init.description.c_str());
      }
      return 0;
    } else {
      usage(argv[0]);
    }
  }
  if (mtx_path.empty() == gen_name.empty()) usage(argv[0]);
  // The tool runs under its own session: the trace written at the end
  // comes from this session's sink, not from whatever the process-wide
  // default session last collected.
  SessionContext session;
  const SessionScope session_scope(session);
  if (!trace_path.empty()) {
    if (!obs::compiled()) {
      std::fprintf(stderr,
                   "error: --trace requires a GRAFTMATCH_TRACE=ON build\n");
      return 2;
    }
    session.trace().arm();
  }

  BipartiteGraph graph;
  if (!mtx_path.empty()) {
    graph = BipartiteGraph::from_edges(read_matrix_market_file(mtx_path));
  } else {
    graph = suite_instance(gen_name).factory(size, seed);
  }
  std::printf("graph: %s\n",
              format_graph_stats(compute_graph_stats(graph)).c_str());

  config.seed = seed;
  config.collect_phase_stats = want_phases;
  Matching matching(graph.num_x(), graph.num_y());
  RunStats stats;
  if (churn_batches > 0) {
    if (config.reduce != ReduceMode::kNone) {
      std::fprintf(stderr,
                   "error: --churn does not compose with --reduce (the "
                   "matcher owns the live graph)\n");
      return 2;
    }
    if (graph.num_edges() == 0) {
      std::fprintf(stderr, "error: --churn needs a graph with edges\n");
      return 2;
    }
    dynamic::DynamicConfig dyn;
    dyn.solver = algo;
    dyn.initializer = init;
    dyn.run = config;
    dynamic::DynamicMatcher matcher(session, graph, dyn);
    const std::int64_t solved = matcher.cardinality();
    std::printf("init (dynamic, %s + %s): |M| = %lld\n", algo.c_str(),
                init.c_str(), static_cast<long long>(solved));
    // Sliding-window replay in a seeded shuffled order: every batch
    // removes B live edges and immediately re-adds them, so the final
    // live set equals the input and the certificate below still speaks
    // about the instance the user named.
    std::vector<Edge> edges = graph.to_edges().edges;
    Xoshiro256 rng(seed);
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[rng.below(i)], edges[i - 1]);
    }
    const auto batch_size = static_cast<std::size_t>(churn_batch_size);
    const Timer churn_timer;
    std::int64_t updates = 0;
    std::size_t cursor = 0;
    std::vector<Edge> batch;
    for (int b = 0; b < churn_batches; ++b) {
      batch.clear();
      for (std::size_t k = 0; k < batch_size; ++k) {
        batch.push_back(edges[cursor]);
        cursor = (cursor + 1) % edges.size();
      }
      matcher.remove_edges(batch);
      matcher.add_edges(batch);
      updates += 2 * static_cast<std::int64_t>(batch.size());
    }
    const double seconds = churn_timer.elapsed();
    std::printf("churn: %d batches x %d edges -> %lld updates in %s "
                "(%.0f updates/s), |M| = %lld (%+lld vs initial)\n",
                churn_batches, churn_batch_size,
                static_cast<long long>(updates),
                format_seconds(seconds).c_str(),
                seconds > 0.0 ? static_cast<double>(updates) / seconds : 0.0,
                static_cast<long long>(matcher.cardinality()),
                static_cast<long long>(matcher.cardinality() - solved));
    stats = matcher.stats();
    matching = matcher.matching();
  } else if (config.reduce == ReduceMode::kNone) {
    const Timer init_timer;
    matching = make_initial(init, graph, config);
    std::printf("init (%s): |M| = %lld in %s\n", init.c_str(),
                static_cast<long long>(matching.cardinality()),
                format_seconds(init_timer.elapsed()).c_str());
    stats = run_algorithm(algo, graph, matching, config);
  } else {
    // engine::run owns the whole pipeline: reduce, init + solve on the
    // kernel, reconstruct on the original graph.
    try {
      stats = engine::run(algo, init, graph, matching, config);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 2;
    }
    const ReduceCounters& r = stats.reduce;
    std::printf("reduce (%s): kernel %lldx%lld with %lld edges, "
                "forced %lld, %lld rounds in %s\n",
                to_string(r.mode).c_str(),
                static_cast<long long>(r.kernel_nx),
                static_cast<long long>(r.kernel_ny),
                static_cast<long long>(r.kernel_edges),
                static_cast<long long>(r.forced_matches),
                static_cast<long long>(r.rounds),
                format_seconds(r.reduce_seconds + r.compact_seconds +
                               r.reconstruct_seconds)
                    .c_str());
  }
  if (want_json) {
    std::printf("%s\n", run_stats_json(stats).c_str());
  } else {
    std::printf("%s\n", format_run_stats(stats).c_str());
  }

  if (!trace_path.empty()) {
    const obs::RunTrace& trace = session.trace().last_run();
    if (!trace.collected) {
      std::fprintf(stderr, "error: the run produced no trace\n");
      return 1;
    }
    if (!obs::write_chrome_trace_file(trace_path, trace)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("trace: %lld events (%lld dropped) -> %s\n",
                static_cast<long long>(trace.events.size()),
                static_cast<long long>(trace.dropped), trace_path.c_str());
  }

  if (want_phases && !stats.phase_stats.empty()) {
    std::printf("%-6s %7s %5s %9s %11s %9s %11s %8s\n", "phase", "levels",
                "b-up", "paths", "edges", "activeX", "renewableY", "graft");
    for (const PhaseStats& row : stats.phase_stats) {
      std::printf("%-6lld %7lld %5lld %9lld %11lld %9lld %11lld %8s\n",
                  static_cast<long long>(row.phase),
                  static_cast<long long>(row.levels),
                  static_cast<long long>(row.bottom_up_levels),
                  static_cast<long long>(row.augmentations),
                  static_cast<long long>(row.edges),
                  static_cast<long long>(row.active_x),
                  static_cast<long long>(row.renewable_y),
                  row.grafted ? "yes" : "no");
    }
  }

  if (verify) {
    const bool ok = is_maximum_matching(graph, matching);
    std::printf("certificate: %s\n",
                ok ? "maximum (Koenig cover size == |M|)" : "NOT MAXIMUM");
    if (!ok) return 1;
  }

  if (want_dm) {
    const DmDecomposition dm = dm_decompose(graph, matching);
    std::printf("DM: H %lldx%lld | S %lldx%lld | V %lldx%lld, "
                "structural rank %lld\n",
                static_cast<long long>(dm.rows_in(DmBlock::kHorizontal)),
                static_cast<long long>(dm.cols_in(DmBlock::kHorizontal)),
                static_cast<long long>(dm.rows_in(DmBlock::kSquare)),
                static_cast<long long>(dm.cols_in(DmBlock::kSquare)),
                static_cast<long long>(dm.rows_in(DmBlock::kVertical)),
                static_cast<long long>(dm.cols_in(DmBlock::kVertical)),
                static_cast<long long>(dm.structural_rank()));
  }
  return 0;
}
