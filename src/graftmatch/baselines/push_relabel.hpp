// Push-relabel bipartite matching (the PR competitor of Figs. 3-4).
//
// Follows the bipartite specialization of Goldberg-Tarjan used by
// Langguth, Manne et al. (the implementation the paper compares
// against): labels psi live on Y vertices; an unmatched X vertex is
// "active"; processing an active x performs a DOUBLE PUSH onto its
// minimum-label admissible neighbor y* (stealing y*'s mate, which
// becomes active again) and relabels psi[y*] to second-min + 1. A vertex
// whose neighbors all carry labels >= n is unmatchable and is retired.
//
// Periodic GLOBAL RELABELING recomputes exact labels with a multi-source
// BFS from the free Y vertices; its cadence is the paper's "relabel
// frequency" (2 at width 1, 16 wider), and the paper's "queue limit"
// of 500 bounds the chunk of active vertices a thread grabs.
//
// The multithreaded variant locks y* with a per-vertex spinlock during
// the double push so label monotonicity and mate consistency hold.
#pragma once

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"

namespace graftmatch {

class SessionContext;

RunStats push_relabel(SessionContext& session, const BipartiteGraph& g,
                      Matching& matching, const RunConfig& config = {});
/// Ambient-session convenience (runtime/context.hpp).
RunStats push_relabel(const BipartiteGraph& g, Matching& matching,
                      const RunConfig& config = {});

}  // namespace graftmatch
