#include "graftmatch/engine/registry.hpp"

#include <omp.h>

#include <sstream>
#include <stdexcept>
#include <utility>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/baselines/pothen_fan.hpp"
#include "graftmatch/baselines/push_relabel.hpp"
#include "graftmatch/baselines/ss_bfs.hpp"
#include "graftmatch/baselines/ss_dfs.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/engine/stats_sink.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/init/parallel_karp_sipser.hpp"
#include "graftmatch/init/streaming_ks.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/reduce/reduce.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch::engine {
namespace {

std::vector<SolverInfo> build_solvers() {
  std::vector<SolverInfo> solvers;
  solvers.push_back(
      {"graft", "MS-BFS-Graft",
       "multi-source BFS with direction optimization and tree grafting "
       "(the paper's algorithm)",
       true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ms_bfs_graft(s, g, m, c); }});
  solvers.push_back(
      {"msbfs", "MS-BFS",
       "plain multi-source BFS with frontier rebuilding (Azad et al.)", true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ms_bfs(s, g, m, c); }});
  solvers.push_back(
      {"pf", "Pothen-Fan",
       "multithreaded Pothen-Fan DFS with lookahead and fairness", true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return pothen_fan(s, g, m, c); }});
  solvers.push_back(
      {"pr", "PR", "parallel push-relabel with global relabeling", true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return push_relabel(s, g, m, c); }});
  solvers.push_back(
      {"hk", "HK", "serial Hopcroft-Karp (shortest augmenting phases)", false,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return hopcroft_karp(s, g, m, c); }});
  solvers.push_back(
      {"ssbfs", "SS-BFS", "serial single-source BFS augmentation", false,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ss_bfs(s, g, m, c); }});
  solvers.push_back(
      {"ssdfs", "SS-DFS", "serial single-source DFS augmentation", false,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ss_dfs(s, g, m, c); }});
  return solvers;
}

// Initializer bodies take no session parameter; binding the session as
// ambient for the duration of the call routes everything they touch
// (parallel regions, trace emissions, stress jitter) to it.
std::vector<InitializerInfo> build_initializers() {
  std::vector<InitializerInfo> inits;
  inits.push_back({"none", "empty matching (no initialization)", false,
                   [](SessionContext&, const BipartiteGraph& g,
                      const RunConfig&) {
                     return Matching(g.num_x(), g.num_y());
                   }});
  inits.push_back({"greedy", "deterministic greedy maximal matching", false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig&) {
                     const SessionScope scope(s);
                     return greedy_maximal(g);
                   }});
  inits.push_back({"rgreedy", "randomized-order greedy maximal matching",
                   false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return randomized_greedy(g, c.seed);
                   }});
  inits.push_back({"ks", "serial Karp-Sipser (degree-1 rule + random rule)",
                   false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return karp_sipser(g, c.seed);
                   }});
  inits.push_back({"ksr1", "serial Karp-Sipser, degree-1 rule only", false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig&) {
                     const SessionScope scope(s);
                     return karp_sipser_rule1(g);
                   }});
  inits.push_back({"pks", "parallel Karp-Sipser (Azad et al. style)", true,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return parallel_karp_sipser(g, c.seed, c.threads);
                   }});
  inits.push_back({"streaming_ks",
                   "single-pass streaming maximal (degree-1 rows first)",
                   false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return streaming_karp_sipser(g, c.seed);
                   }});
  return inits;
}

std::string known_keys(std::span<const std::string> names) {
  std::ostringstream out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i == 0 ? "" : ", ") << names[i];
  }
  return out.str();
}

}  // namespace

std::span<const SolverInfo> solver_registry() {
  static const std::vector<SolverInfo> solvers = build_solvers();
  return solvers;
}

std::span<const InitializerInfo> initializer_registry() {
  static const std::vector<InitializerInfo> inits = build_initializers();
  return inits;
}

const SolverInfo* find_solver_or_null(const std::string& name) {
  for (const SolverInfo& solver : solver_registry()) {
    if (solver.name == name) return &solver;
  }
  return nullptr;
}

const InitializerInfo* find_initializer_or_null(const std::string& name) {
  for (const InitializerInfo& init : initializer_registry()) {
    if (init.name == name) return &init;
  }
  return nullptr;
}

const SolverInfo& find_solver(const std::string& name) {
  if (const SolverInfo* solver = find_solver_or_null(name)) return *solver;
  throw std::invalid_argument("unknown solver \"" + name +
                              "\"; known solvers: " +
                              known_keys(solver_names()));
}

const InitializerInfo& find_initializer(const std::string& name) {
  if (const InitializerInfo* init = find_initializer_or_null(name)) {
    return *init;
  }
  throw std::invalid_argument("unknown initializer \"" + name +
                              "\"; known initializers: " +
                              known_keys(initializer_names()));
}

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  for (const SolverInfo& solver : solver_registry()) {
    names.push_back(solver.name);
  }
  return names;
}

std::vector<std::string> initializer_names() {
  std::vector<std::string> names;
  for (const InitializerInfo& init : initializer_registry()) {
    names.push_back(init.name);
  }
  return names;
}

Matching make_initial_matching(SessionContext& session,
                               const std::string& name,
                               const BipartiteGraph& g,
                               const RunConfig& config) {
  const InitializerInfo& init = find_initializer(name);
  // The solve's width must bind for every initializer, including any
  // future one that opens regions without plumbing an explicit thread
  // argument (parallel_karp_sipser takes one, but the guard makes the
  // contract hold registry-wide).
  const ThreadCountGuard guard(solve_width(g.num_edges(), config.threads));
  return init.make(session, g, config);
}

Matching make_initial_matching(const std::string& name,
                               const BipartiteGraph& g,
                               const RunConfig& config) {
  return make_initial_matching(ambient_session(), name, g, config);
}

RunStats run(SessionContext& session, const std::string& solver_name,
             const std::string& initializer_name, const BipartiteGraph& g,
             Matching& matching, const RunConfig& config) {
  const SolverInfo& solver = find_solver(solver_name);
  if (config.reduce == ReduceMode::kNone) {
    matching = make_initial_matching(session, initializer_name, g, config);
    return solver.run(session, g, matching, config);
  }

  // reduce -> init + solve on the kernel -> reconstruct. The driver owns
  // the trace run (when armed) so the reduce/compact/reconstruct spans
  // emitted outside the solver land in the same trace; the solver's
  // StatsSink records into this run instead of opening its own, and the
  // distilled counters are stamped here.
  const SessionScope scope(session);
  const ThreadCountGuard guard(solve_width(g.num_edges(), config.threads));
  const std::string trace_name = "reduce+" + solver.name;
  const bool owns_trace =
      session.trace().begin_run(trace_name.c_str(), omp_get_max_threads());

  reduce::Reduction reduction = reduce::reduce_graph(g, config.reduce);
  // Identity reduction: solve on the original graph and skip the
  // reconstruction pass entirely (the matching is already in
  // original-graph terms).
  const BipartiteGraph& solve_g = reduce::solve_graph(reduction, g);
  Matching kernel_matching =
      make_initial_matching(session, initializer_name, solve_g, config);
  RunStats stats = solver.run(session, solve_g, kernel_matching, config);

  if (reduction.identity) {
    matching = std::move(kernel_matching);
  } else {
    const Timer timer;
    matching = reduce::reconstruct_matching(g, reduction, kernel_matching);
    reduction.stats.reconstruct_seconds = timer.elapsed();
  }

  stats.reduce = reduction.stats;
  // Translate cardinalities to original-graph terms: each forced match
  // contributes exactly one edge on top of the kernel matching, both
  // before and after the solve, so the augmentation delta
  // (final - initial) still describes the kernel solve.
  stats.initial_cardinality += reduction.stats.forced_matches;
  stats.final_cardinality = matching.cardinality();

  if (owns_trace) distill_obs(session, stats);
  return stats;
}

RunStats run(const std::string& solver_name,
             const std::string& initializer_name, const BipartiteGraph& g,
             Matching& matching, const RunConfig& config) {
  return run(ambient_session(), solver_name, initializer_name, g, matching,
             config);
}

}  // namespace graftmatch::engine
