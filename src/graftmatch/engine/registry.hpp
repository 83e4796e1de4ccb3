// Solver and initializer registries.
//
// Everything that runs a matching algorithm by name -- the benches,
// the differential-oracle harness, examples/matching_tool -- used to
// hard-code its own solver list and drift out of sync. The registries
// are the single source of truth: one entry per algorithm and per
// initial-matching heuristic, each with a uniform factory signature so
// a newly registered solver is picked up by every driver (and oracle-
// checked by tests/diff) automatically.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/runtime/context.hpp"

namespace graftmatch::engine {

/// Runs one matching algorithm: grows `matching` in place on `g` under
/// `config` and returns the run's stats. The session receives the run's
/// probe state, trace, and workspace traffic (runtime/context.hpp);
/// entries bind it as the ambient session for the duration of the call.
using SolverFn = std::function<RunStats(SessionContext& session,
                                        const BipartiteGraph& g,
                                        Matching& matching,
                                        const RunConfig& config)>;

struct SolverInfo {
  std::string name;          ///< registry key, e.g. "graft"
  std::string display_name;  ///< paper label, e.g. "MS-BFS-Graft"
  std::string description;   ///< one-line summary for --list output
  bool parallel = false;     ///< honors RunConfig::threads beyond 1
  SolverFn solve;

  /// Run under an explicit session.
  RunStats run(SessionContext& session, const BipartiteGraph& g,
               Matching& matching, const RunConfig& config) const {
    return solve(session, g, matching, config);
  }
  /// Run under the calling thread's ambient session -- the pre-session
  /// call shape every one-shot driver uses.
  RunStats run(const BipartiteGraph& g, Matching& matching,
               const RunConfig& config) const {
    return solve(ambient_session(), g, matching, config);
  }
};

/// Builds an initial matching on `g`. Reads RunConfig::seed and
/// RunConfig::threads (every entry honors `threads`, including the
/// serial heuristics, which simply never open a region).
using InitializerFn = std::function<Matching(SessionContext& session,
                                             const BipartiteGraph& g,
                                             const RunConfig& config)>;

struct InitializerInfo {
  std::string name;         ///< registry key, e.g. "ks"
  std::string description;  ///< one-line summary for --list output
  bool parallel = false;
  InitializerFn build;

  /// Build under an explicit session.
  Matching make(SessionContext& session, const BipartiteGraph& g,
                const RunConfig& config) const {
    return build(session, g, config);
  }
  /// Build under the calling thread's ambient session.
  Matching make(const BipartiteGraph& g, const RunConfig& config) const {
    return build(ambient_session(), g, config);
  }
};

/// All registered solvers, in presentation order (paper algorithm
/// first, then the baselines as introduced in Sec. V-A).
std::span<const SolverInfo> solver_registry();

/// All registered initializers ("none" first, then the heuristics in
/// increasing sophistication).
std::span<const InitializerInfo> initializer_registry();

/// Lookup by registry key; throws std::invalid_argument naming the
/// unknown key and listing the known ones.
const SolverInfo& find_solver(const std::string& name);
const InitializerInfo& find_initializer(const std::string& name);

/// Lookup that returns nullptr instead of throwing.
const SolverInfo* find_solver_or_null(const std::string& name);
const InitializerInfo* find_initializer_or_null(const std::string& name);

/// Registry keys, in registry order.
std::vector<std::string> solver_names();
std::vector<std::string> initializer_names();

/// Convenience: find_initializer(name).make(session, g, config), with
/// RunConfig::threads bound for the duration.
Matching make_initial_matching(SessionContext& session,
                               const std::string& name,
                               const BipartiteGraph& g,
                               const RunConfig& config);
/// Ambient-session convenience.
Matching make_initial_matching(const std::string& name,
                               const BipartiteGraph& g,
                               const RunConfig& config);

/// The end-to-end entry point: build the initial matching with
/// `initializer_name` and grow it to maximum with `solver_name`, under
/// the full RunConfig surface (reduce, threads, invariant checks).
/// `matching` receives the final original-graph matching (its incoming
/// value is ignored). The serving layer, the dynamic matcher's
/// re-solves and every driver route their runs through this.
///
/// With RunConfig::reduce set, the kernelization pre-pass
/// (src/graftmatch/reduce/) runs first, the initializer and solver run
/// on the kernel, and the kernel matching is lifted back to `g` via the
/// reconstruction log. The returned stats then describe the kernel
/// solve (phases, edges, seconds) with cardinalities translated to
/// original-graph terms and the pre-pass accounted in RunStats::reduce.
/// With reduce == kNone this is exactly make_initial_matching + solver
/// (no copy, no reduce block).
RunStats run(SessionContext& session, const std::string& solver_name,
             const std::string& initializer_name, const BipartiteGraph& g,
             Matching& matching, const RunConfig& config);
/// Ambient-session convenience.
RunStats run(const std::string& solver_name,
             const std::string& initializer_name, const BipartiteGraph& g,
             Matching& matching, const RunConfig& config);

}  // namespace graftmatch::engine
