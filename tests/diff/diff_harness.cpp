#include "diff_harness.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "test_widths.hpp"

namespace graftmatch::diff {
namespace {

// ---------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------

// Each instance draws its generator seed from a splitmix64 stream of the
// master seed, so instance k is reproducible from (master_seed, k).
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t master) : state_(master) {}
  std::uint64_t next() { return splitmix64_next(state_); }

 private:
  std::uint64_t state_;
};

std::string indexed_name(const std::string& family, int index) {
  std::ostringstream out;
  out << family << '-' << (index < 10 ? "0" : "") << index;
  return out.str();
}

}  // namespace

std::vector<Instance> build_corpus(std::uint64_t master_seed) {
  std::vector<Instance> corpus;
  SeedStream seeds(master_seed);
  auto add = [&](const std::string& family, BipartiteGraph graph,
                 std::uint64_t seed, std::int64_t known_maximum = -1) {
    Instance instance;
    instance.family = family;
    instance.name = indexed_name(
        family, static_cast<int>(std::count_if(
                    corpus.begin(), corpus.end(),
                    [&](const Instance& i) { return i.family == family; })));
    instance.seed = seed;
    instance.graph = std::move(graph);
    instance.known_maximum = known_maximum;
    corpus.push_back(std::move(instance));
  };

  // Erdos-Renyi: density sweep, including asymmetric parts (the paper's
  // matrices are rectangular) and a near-complete small block.
  struct ErShape { vid_t nx, ny; std::int64_t edges; };
  for (const ErShape& s : {ErShape{400, 400, 1200}, ErShape{600, 500, 3000},
                           ErShape{800, 800, 1600}, ErShape{300, 900, 2700},
                           ErShape{1000, 1000, 8000}, ErShape{64, 64, 2048}}) {
    const std::uint64_t seed = seeds.next();
    add("er", generate_erdos_renyi({s.nx, s.ny, s.edges, seed}), seed);
  }

  // RMAT: skewed degrees; the direction-optimized bottom-up path and
  // grafting collisions are exercised hardest here.
  for (const int scale : {7, 8, 9, 9}) {
    const std::uint64_t seed = seeds.next();
    RmatParams params;
    params.scale = scale;
    params.edge_factor = 8.0;
    params.seed = seed;
    add("rmat", generate_rmat(params), seed);
  }

  // Chung-Lu: power-law degree sweep from heavy to light tails.
  for (const double gamma : {1.8, 2.2, 2.5, 3.0}) {
    const std::uint64_t seed = seeds.next();
    ChungLuParams params;
    params.nx = 700;
    params.ny = 700;
    params.avg_degree = 6.0;
    params.gamma = gamma;
    params.max_degree = 128;
    params.seed = seed;
    add("cl", generate_chung_lu(params), seed);
  }

  // Grid stencils: near-perfect matchings, long augmenting paths. The
  // diagonal_drop variants pull the matching number below perfect.
  {
    const std::uint64_t s0 = seeds.next();
    add("grid", generate_grid({24, 24, 1, 0.0, s0}), s0,
        24 * 24);  // full diagonal -> perfect matching by construction
    const std::uint64_t s1 = seeds.next();
    add("grid", generate_grid({32, 32, 1, 0.1, s1}), s1);
    const std::uint64_t s2 = seeds.next();
    add("grid", generate_grid({8, 8, 8, 0.05, s2}), s2);
    const std::uint64_t s3 = seeds.next();
    add("grid", generate_grid({48, 16, 1, 0.3, s3}), s3);
  }

  // Road-like lattices: bounded degree, dead ends, long paths.
  struct RoadShape { vid_t w, h; double keep, dead; };
  for (const RoadShape& s :
       {RoadShape{32, 32, 0.85, 0.02}, RoadShape{40, 24, 0.7, 0.05},
        RoadShape{28, 28, 0.95, 0.0}, RoadShape{36, 36, 0.6, 0.1}}) {
    const std::uint64_t seed = seeds.next();
    add("road", generate_road({s.w, s.h, s.keep, s.dead, seed}), seed);
  }

  // Planted: the only family with an algorithm-independent exact optimum.
  struct PlantedShape { vid_t pairs, surplus, bottleneck; double noise; };
  for (const PlantedShape& s :
       {PlantedShape{512, 64, 16, 3.0}, PlantedShape{256, 128, 128, 1.0},
        PlantedShape{800, 40, 8, 6.0}, PlantedShape{128, 64, 0, 2.0},
        PlantedShape{600, 0, 32, 4.0}}) {
    const std::uint64_t seed = seeds.next();
    PlantedParams params;
    params.matched_pairs = s.pairs;
    params.surplus_rows = s.surplus;
    params.bottleneck = s.bottleneck;
    params.noise_degree = s.noise;
    params.seed = seed;
    PlantedGraph planted = generate_planted(params);
    add("planted", std::move(planted.graph), seed,
        planted.maximum_cardinality);
  }

  // SBM: community structure makes alternating trees collide.
  for (const double out_degree : {0.5, 1.0, 2.0}) {
    const std::uint64_t seed = seeds.next();
    SbmParams params;
    params.rows_per_block = 128;
    params.cols_per_block = 128;
    params.blocks = 5;
    params.in_degree = 5.0;
    params.out_degree = out_degree;
    params.seed = seed;
    add("sbm", generate_sbm(params), seed);
  }

  // Webcrawl: low matching number, many stubs -- the regime where
  // grafting pays off most and a dropped augmenting path is likeliest.
  for (const double stub_fraction : {0.3, 0.5, 0.7}) {
    const std::uint64_t seed = seeds.next();
    WebCrawlParams params;
    params.nx = 800;
    params.ny = 800;
    params.avg_degree = 5.0;
    params.gamma = 1.9;
    params.stub_fraction = stub_fraction;
    params.hub_count = 32;
    params.seed = seed;
    add("web", generate_webcrawl(params), seed);
  }

  // Wide: each grown until the widest roster arm runs kRosterWidth wide.
  {
    const std::uint64_t s0 = seeds.next();
    add("wide", graph_for_width(kRosterWidth, [&](int k) {
          return generate_rmat({.scale = 10 + k, .edge_factor = 8.0,
                                .seed = s0});
        }), s0);
    const std::uint64_t s1 = seeds.next();
    add("wide", graph_for_width(kRosterWidth, [&](int k) {
          return generate_chung_lu({.nx = 2500 * k, .ny = 2500 * k,
                                    .avg_degree = 6.0, .gamma = 2.2,
                                    .max_degree = 128, .seed = s1});
        }), s1);
    const std::uint64_t s2 = seeds.next();
    add("wide", graph_for_width(kRosterWidth, [&](int k) {
          return generate_webcrawl({.nx = 4000 * k, .ny = 4000 * k,
                                    .avg_degree = 5.0, .hub_count = 32,
                                    .seed = s2});
        }), s2);
    const std::uint64_t s3 = seeds.next();
    PlantedGraph planted = generate_planted(
        {.matched_pairs = 6000, .surplus_rows = 64, .bottleneck = 16,
         .noise_degree = 4.0, .seed = s3});
    add("wide", std::move(planted.graph), s3, planted.maximum_cardinality);
  }

  return corpus;
}

// ---------------------------------------------------------------------
// Solver roster
// ---------------------------------------------------------------------

namespace {

using InitFn = std::function<Matching(const BipartiteGraph&)>;

}  // namespace

std::vector<SolverSpec> solver_roster(std::vector<int> thread_counts) {
  if (thread_counts.empty()) thread_counts = {1, 2, kRosterWidth};
  const int max_threads = thread_counts.back();

  std::vector<SolverSpec> roster;

  const InitFn init_ks = [](const BipartiteGraph& g) {
    return karp_sipser(g, /*seed=*/7);
  };
  // Registry entries live in a function-local static vector, so the
  // pointer stays valid for the process lifetime; the run() member
  // resolves the ambient session like every one-shot call shape.
  const engine::SolverInfo* graft_solver = &engine::find_solver("graft");
  const auto graft_run = [graft_solver](const BipartiteGraph& g, Matching& m,
                                        const RunConfig& config) {
    return graft_solver->run(g, m, config);
  };

  // MS-BFS-Graft across the Fig. 7 ablation grid x thread counts.
  // (dir_opt=0, graft=0) is the plain MS-BFS baseline.
  for (const int threads : thread_counts) {
    for (const bool dir_opt : {false, true}) {
      for (const bool graft : {false, true}) {
        std::ostringstream name;
        name << "msbfs[do=" << dir_opt << ",graft=" << graft
             << ",t=" << threads << ",init=ks]";
        roster.push_back({name.str(), threads,
                          [=](const BipartiteGraph& g, RunStats& stats) {
                            Matching m = init_ks(g);
                            RunConfig config;
                            config.threads = threads;
                            config.direction_optimizing = dir_opt;
                            config.tree_grafting = graft;
                            config.check_invariants = true;
                            stats = graft_run(g, m, config);
                            return m;
                          }});
      }
    }
  }

  // Initializer registry cross-product at max parallelism: the final
  // cardinality must not depend on the starting maximal matching. A
  // newly registered initializer is oracle-checked automatically. "ks"
  // is skipped here only because the ablation grid above already covers
  // graft-from-ks at every thread count.
  for (const auto& init : engine::initializer_registry()) {
    if (init.name == "ks") continue;
    const std::string init_name = init.name;
    roster.push_back({"graft[t=" + std::to_string(max_threads) +
                          ",init=" + init_name + "]",
                      max_threads,
                      [=](const BipartiteGraph& g, RunStats& stats) {
                        RunConfig config;
                        config.threads = max_threads;
                        config.seed = 7;
                        Matching m =
                            engine::make_initial_matching(init_name, g, config);
                        config.check_invariants = true;
                        stats = graft_run(g, m, config);
                        return m;
                      }});
  }

  // Every registered solver from the same Karp-Sipser start: parallel
  // solvers serial and at the widest width, serial solvers once. Iterating
  // the registry (instead of a hand-maintained list) means registering
  // a solver is all it takes to put it under the oracle.
  for (const auto& solver : engine::solver_registry()) {
    std::vector<int> counts;
    if (solver.parallel) {
      counts.push_back(1);
      if (max_threads != 1) counts.push_back(max_threads);
    } else {
      counts.push_back(0);
    }
    const engine::SolverInfo* info = &solver;
    const auto run = [info](const BipartiteGraph& g, Matching& m,
                            const RunConfig& config) {
      return info->run(g, m, config);
    };
    for (const int threads : counts) {
      const std::string name =
          solver.parallel
              ? solver.name + "[t=" + std::to_string(threads) + ",init=ks]"
              : solver.name + "[init=ks]";
      roster.push_back({name, threads,
                        [=](const BipartiteGraph& g, RunStats& stats) {
                          Matching m = init_ks(g);
                          RunConfig config;
                          config.threads = threads;
                          stats = run(g, m, config);
                          return m;
                        }});
    }
  }

  // Every registered solver from the streaming single-pass start. The
  // streaming initializer feeds the dynamic-matching ingestion path, so
  // its composition with the full solver registry is oracle-gated here
  // (the registry cross-product above covers it with graft only).
  for (const auto& solver : engine::solver_registry()) {
    const engine::SolverInfo* info = &solver;
    const auto run = [info](const BipartiteGraph& g, Matching& m,
                            const RunConfig& config) {
      return info->run(g, m, config);
    };
    const int threads = solver.parallel ? max_threads : 0;
    const std::string name =
        solver.parallel
            ? solver.name + "[t=" + std::to_string(threads) +
                  ",init=streaming_ks]"
            : solver.name + "[init=streaming_ks]";
    roster.push_back({name, threads,
                      [=](const BipartiteGraph& g, RunStats& stats) {
                        RunConfig config;
                        config.threads = threads;
                        config.seed = 11;
                        Matching m = engine::make_initial_matching(
                            "streaming_ks", g, config);
                        stats = run(g, m, config);
                        return m;
                      }});
  }

  // Every registered solver again, but through the engine driver with
  // the degree-1 pre-pass: reduce, initialize on the kernel, solve, and
  // lift back to the original graph. The oracle catches any cardinality
  // lost to a bad kernel, a wrong reconstruction, or stats/matching
  // drift in the driver -- on instances the payoff gate declines this
  // also exercises the identity-reduction path.
  for (const auto& solver : engine::solver_registry()) {
    const std::string solver_name = solver.name;
    const int threads = solver.parallel ? max_threads : 0;
    roster.push_back({"engine+d1+" + solver_name + "[t=" +
                          std::to_string(threads) + ",init=ks]",
                      threads,
                      [=](const BipartiteGraph& g, RunStats& stats) {
                        RunConfig config;
                        config.threads = threads;
                        config.seed = 7;
                        config.reduce = ReduceMode::kDegree1;
                        config.check_invariants = true;
                        Matching m;
                        stats = engine::run(solver_name, "ks", g, m, config);
                        return m;
                      }});
  }

  return roster;
}

// ---------------------------------------------------------------------
// Differential run + reproducer dump
// ---------------------------------------------------------------------

namespace {

/// Write graph.mtx + repro.txt for a failing (instance, solver) pair.
/// Returns the directory path, or "" when the dump failed.
std::string dump_reproducer(const Instance& instance,
                            const std::string& solver,
                            const std::string& detail,
                            const DiffOptions& options) {
  namespace fs = std::filesystem;
  std::string solver_slug = solver;
  for (char& c : solver_slug) {
    if (c == '[' || c == ']' || c == '=' || c == ',') c = '_';
  }
  const fs::path dir =
      fs::path(options.failure_dir) / (instance.name + "_" + solver_slug);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "";

  std::ofstream mtx(dir / "graph.mtx");
  if (!mtx) return "";
  write_matrix_market(mtx, instance.graph.to_edges());

  std::ofstream repro(dir / "repro.txt");
  if (!repro) return "";
  repro << "instance      : " << instance.name << "\n"
        << "family        : " << instance.family << "\n"
        << "generator seed: " << instance.seed << "\n"
        << "corpus master : " << options.master_seed << "\n"
        << "known maximum : " << instance.known_maximum << "\n"
        << "solver        : " << solver << "\n"
        << "failure       : " << detail << "\n"
        << "graph         : graph.mtx (Matrix Market, alongside this file)\n"
        << "replay        : examples/matching_tool --input graph.mtx with\n"
        << "                the solver config above, or rerun\n"
        << "                ctest -L diff with GRAFTMATCH_SEED set to the\n"
        << "                corpus master seed.\n";
  return dir.string();
}

}  // namespace

std::vector<Discrepancy> run_differential(
    const Instance& instance, const std::vector<SolverSpec>& roster,
    const DiffOptions& options) {
  std::vector<Discrepancy> found;
  auto report = [&](const std::string& solver, const std::string& detail) {
    found.push_back({instance.name, solver, detail,
                     dump_reproducer(instance, solver, detail, options)});
  };

  std::int64_t reference = instance.known_maximum;
  std::string reference_solver =
      reference >= 0 ? "planted-optimum" : "";

  for (const SolverSpec& solver : roster) {
    Matching matching;
    RunStats stats;
    try {
      matching = solver.run(instance.graph, stats);
    } catch (const std::exception& e) {
      report(solver.name, std::string("threw: ") + e.what());
      continue;
    }

    // (a) structural validity, independent of any solver.
    const std::string validity = validate_matching(instance.graph, matching);
    if (!validity.empty()) {
      report(solver.name, "invalid matching: " + validity);
      continue;
    }

    // (b) Koenig maximality certificate.
    const VertexCover cover = koenig_cover(instance.graph, matching);
    const std::int64_t cardinality = matching.cardinality();
    if (!covers_all_edges(instance.graph, cover)) {
      report(solver.name, "Koenig construction is not a vertex cover");
      continue;
    }
    if (cover.size() != cardinality) {
      std::ostringstream detail;
      detail << "not maximum: |M| = " << cardinality
             << " but Koenig cover has size " << cover.size();
      report(solver.name, detail.str());
      continue;
    }

    // (c) pairwise cardinality agreement (via a common reference).
    if (reference < 0) {
      reference = cardinality;
      reference_solver = solver.name;
    } else if (cardinality != reference) {
      std::ostringstream detail;
      detail << "cardinality " << cardinality << " != " << reference
             << " from " << reference_solver;
      report(solver.name, detail.str());
    }

    // (d) the solve ran as wide as solve_width() grants the graph it
    // solved (the kernel, when engine::run reduced it).
    if (solver.threads > 0) {
      const std::int64_t edges = stats.reduce.collected
                                     ? stats.reduce.kernel_edges
                                     : instance.graph.num_edges();
      const int width = solve_width(edges, solver.threads);
      if (stats.threads_used != width) {
        std::ostringstream detail;
        detail << "ran " << stats.threads_used << " wide; solve_width("
               << edges << ", " << solver.threads << ") = " << width;
        report(solver.name, detail.str());
      }
    }
  }
  return found;
}

std::vector<Discrepancy> run_differential(const Instance& instance,
                                          const DiffOptions& options) {
  return run_differential(instance, solver_roster(options.thread_counts),
                          options);
}

std::string format_discrepancies(const std::vector<Discrepancy>& found) {
  std::ostringstream out;
  for (const Discrepancy& d : found) {
    out << d.instance << " / " << d.solver << ": " << d.detail;
    if (!d.repro_dir.empty()) out << " [repro: " << d.repro_dir << "]";
    out << "\n";
  }
  return out.str();
}

}  // namespace graftmatch::diff
