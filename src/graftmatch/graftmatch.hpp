// Umbrella header: the full public API of the graftmatch library.
//
// Typical use:
//
//   #include "graftmatch/graftmatch.hpp"
//
//   auto graph = graftmatch::generate_rmat({.scale = 18});
//   auto matching = graftmatch::karp_sipser(graph);       // maximal init
//   auto stats = graftmatch::ms_bfs_graft(graph, matching);  // maximum
//   assert(graftmatch::is_maximum_matching(graph, matching));
#pragma once

#include "graftmatch/types.hpp"

// Graph substrate
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/edge_list.hpp"
#include "graftmatch/graph/graph_stats.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/graph/matching_io.hpp"
#include "graftmatch/graph/mm_io.hpp"
#include "graftmatch/graph/transforms.hpp"

// Workload generators
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/gen/grid.hpp"
#include "graftmatch/gen/planted.hpp"
#include "graftmatch/gen/rmat.hpp"
#include "graftmatch/gen/road.hpp"
#include "graftmatch/gen/sbm.hpp"
#include "graftmatch/gen/suite.hpp"
#include "graftmatch/gen/webcrawl.hpp"

// Initializers
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/init/parallel_karp_sipser.hpp"
#include "graftmatch/init/streaming_ks.hpp"

// Maximum matching: core algorithm and baselines
#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/baselines/pothen_fan.hpp"
#include "graftmatch/baselines/push_relabel.hpp"
#include "graftmatch/baselines/ss_bfs.hpp"
#include "graftmatch/baselines/ss_dfs.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/core/run_stats.hpp"

// Kernelization pre-pass (reductions + reconstruction)
#include "graftmatch/reduce/reduce.hpp"

// Incremental matching under edge churn
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/dynamic/overlay.hpp"

// Traversal engine: shared frontier kernels, solver/initializer
// registries, and the phase-scoped stats sink
#include "graftmatch/engine/edge_partition.hpp"
#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/engine/stats_sink.hpp"

// Observability: structured tracing and Chrome trace export
#include "graftmatch/obs/chrome_trace.hpp"
#include "graftmatch/obs/summary.hpp"
#include "graftmatch/obs/trace.hpp"

// Serving: session contexts and the matching-as-a-service core
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/serve/bounded_queue.hpp"
#include "graftmatch/serve/protocol.hpp"
#include "graftmatch/serve/roster.hpp"
#include "graftmatch/serve/server.hpp"
#include "graftmatch/serve/uds.hpp"

// Verification
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"

// Applications
#include "graftmatch/dm/btf.hpp"
#include "graftmatch/dm/dulmage_mendelsohn.hpp"

// Runtime utilities
#include "graftmatch/runtime/cli.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/system_info.hpp"
#include "graftmatch/runtime/timer.hpp"
