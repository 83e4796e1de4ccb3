// Differential oracle for the maximum-matching solvers.
//
// Nondeterministic parallel matchers are validated the way the GPU /
// multicore matching literature does it: run EVERY solver configuration
// on the SAME instance and require (a) each result to be a valid
// matching, (b) each result to carry a Koenig maximality certificate,
// and (c) all cardinalities to agree pairwise (and with the planted
// optimum when the generator knows it). A benign-looking race that
// drops one augmenting path breaks (b) and (c) loudly.
//
// Any failure dumps a self-contained reproducer -- Matrix Market graph,
// seed, and solver config -- under a failure directory (default
// "diff_failures/" beneath the test working directory, i.e.
// build/tests/diff/diff_failures in a standard build) so the case can
// be replayed outside the harness. See docs/TESTING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graftmatch/graftmatch.hpp"

namespace graftmatch::diff {

/// One corpus entry. `seed` is the generator seed (derived from the
/// corpus master seed via a splitmix64 stream, so a failing instance is
/// reproducible from the master seed + index alone).
struct Instance {
  std::string name;    ///< unique, filesystem-safe (e.g. "rmat-02")
  std::string family;  ///< generator family ("er", "rmat", ...)
  std::uint64_t seed = 0;
  BipartiteGraph graph;
  std::int64_t known_maximum = -1;  ///< exact optimum, or -1 if unknown
};

/// Widest team the default roster asks for.
inline constexpr int kRosterWidth = 4;

/// Seeded corpus spanning every generator family (ER, RMAT, Chung-Lu,
/// grid, road, planted, SBM, webcrawl); >= 30 instances, sized so the
/// full differential sweep stays in test-suite time. Those families are
/// below the solve_width() grain, so their solves run one or two wide;
/// the "wide" family (RMAT, Chung-Lu, planted, webcrawl) is large enough
/// that every roster arm runs as wide as it asks (kRosterWidth).
std::vector<Instance> build_corpus(std::uint64_t master_seed);

/// A named solver configuration: produces a final matching from a graph.
struct SolverSpec {
  std::string name;
  /// Team width the configuration asks for; 0 for a serial solver.
  int threads = 0;
  /// Solves a graph from scratch and fills `stats` with the solve's
  /// RunStats.
  std::function<Matching(const BipartiteGraph&, RunStats& stats)> run;
};

/// The full roster: MS-BFS-Graft across thread counts x {direction
/// optimization, tree grafting} ablations x initializers (greedy,
/// Karp-Sipser, parallel Karp-Sipser), plus the five baselines
/// (Hopcroft-Karp, Pothen-Fan, push-relabel, SS-BFS, SS-DFS).
/// `thread_counts` defaults to {1, 2, kRosterWidth}.
std::vector<SolverSpec> solver_roster(std::vector<int> thread_counts = {});

/// One verification failure. `detail` is human-readable; `repro_dir` is
/// where the reproducer was written ("" when the dump itself failed).
struct Discrepancy {
  std::string instance;
  std::string solver;
  std::string detail;
  std::string repro_dir;
};

struct DiffOptions {
  std::vector<int> thread_counts;  ///< empty -> roster default
  std::string failure_dir = "diff_failures";
  std::uint64_t master_seed = 0;   ///< recorded in reproducers
};

/// Run every roster solver on `instance` and cross-check; each solver
/// that asks for a width must also report the solve_width() of the
/// graph it solved. Returns all discrepancies found (empty == instance
/// fully agrees and certifies).
std::vector<Discrepancy> run_differential(const Instance& instance,
                                          const DiffOptions& options = {});

/// Same checks against an explicit roster (used by the stress tests and
/// by the harness's own self-test with a deliberately broken solver).
std::vector<Discrepancy> run_differential(
    const Instance& instance, const std::vector<SolverSpec>& roster,
    const DiffOptions& options = {});

/// Render discrepancies for a test failure message.
std::string format_discrepancies(const std::vector<Discrepancy>& found);

}  // namespace graftmatch::diff
