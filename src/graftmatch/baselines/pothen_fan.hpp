// Pothen-Fan algorithm: multi-source DFS with lookahead, plus the
// "fairness" refinement (alternating adjacency scan direction between
// phases). This is the PF competitor of the paper's Figs. 3, 4; the
// multithreaded variant follows Azad et al. [4]: each thread grows a DFS
// tree from one unmatched vertex, Y vertices are claimed with atomic
// visited flags so trees stay vertex-disjoint, and each thread augments
// its own path immediately.
#pragma once

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"

namespace graftmatch {

class SessionContext;

/// Grow `matching` to maximum cardinality with Pothen-Fan.
/// Runs solve_width(edges, config.threads) threads wide, with fairness
/// (alternating scan direction per phase) always on, as in the paper.
RunStats pothen_fan(SessionContext& session, const BipartiteGraph& g,
                    Matching& matching, const RunConfig& config = {});
/// Ambient-session convenience (runtime/context.hpp).
RunStats pothen_fan(const BipartiteGraph& g, Matching& matching,
                    const RunConfig& config = {});

}  // namespace graftmatch
