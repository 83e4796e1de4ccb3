// Tests for the obs/ tracing layer: event-stream invariants for every
// registered solver, Chrome trace_event export validity, trace/stats
// cross-checks, and the arm/disarm lifecycle.
//
// Carries the `obs` ctest label: CI runs exactly these tests under TSan
// in a GRAFTMATCH_TRACE=ON build to prove the tracer itself is
// race-free while the solvers hammer it from their parallel regions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/planted.hpp"
#include "graftmatch/obs/chrome_trace.hpp"
#include "graftmatch/obs/summary.hpp"
#include "graftmatch/obs/trace.hpp"
#include "json_check.hpp"

namespace graftmatch {
namespace {

PlantedGraph test_instance() {
  PlantedParams params;
  params.matched_pairs = 512;
  params.surplus_rows = 64;
  params.bottleneck = 16;
  params.noise_degree = 3.0;
  params.seed = 9;
  return generate_planted(params);
}

/// Structural invariants every flushed trace must satisfy: events
/// grouped per thread, timestamps monotone within a thread, every
/// Begin matched by an End of the same name (LIFO), non-negative
/// normalized timestamps, exactly one run span.
void check_trace_invariants(const obs::RunTrace& trace, int max_threads) {
  ASSERT_TRUE(trace.collected);
  EXPECT_EQ(trace.dropped, 0);
  EXPECT_FALSE(trace.events.empty());

  std::set<std::int32_t> seen_tids;
  std::int32_t current_tid = trace.events.front().tid;
  std::int64_t last_ts = 0;
  std::vector<std::string_view> stack;
  int run_begins = 0;
  int run_ends = 0;

  for (const obs::Event& event : trace.events) {
    ASSERT_NE(event.name, nullptr);
    EXPECT_GE(event.ts_ns, 0) << "timestamps are epoch-normalized";
    if (event.tid != current_tid) {
      // Thread segments must not interleave, and each must close every
      // span it opened.
      EXPECT_FALSE(seen_tids.count(event.tid))
          << "tid " << event.tid << " appears in two segments";
      EXPECT_TRUE(stack.empty())
          << "tid " << current_tid << " left " << stack.size()
          << " spans open";
      seen_tids.insert(current_tid);
      current_tid = event.tid;
      last_ts = 0;
      stack.clear();
    }
    EXPECT_GE(event.ts_ns, last_ts) << "timestamps regress within a thread";
    last_ts = event.ts_ns;
    switch (event.kind) {
      case obs::EventKind::kBegin:
        stack.push_back(event.name->name);
        run_begins += std::string_view(event.name->name) == "run";
        break;
      case obs::EventKind::kEnd:
        ASSERT_FALSE(stack.empty()) << "End without Begin: "
                                    << event.name->name;
        EXPECT_EQ(stack.back(), std::string_view(event.name->name));
        stack.pop_back();
        run_ends += std::string_view(event.name->name) == "run";
        break;
      case obs::EventKind::kComplete:
        EXPECT_GE(event.dur_ns, 0);
        break;
      case obs::EventKind::kCounter:
      case obs::EventKind::kInstant:
        break;
    }
  }
  EXPECT_TRUE(stack.empty());
  seen_tids.insert(current_tid);
  EXPECT_EQ(run_begins, 1);
  EXPECT_EQ(run_ends, 1);
  EXPECT_LE(static_cast<int>(seen_tids.size()), max_threads);
  EXPECT_EQ(trace.thread_count, static_cast<int>(seen_tids.size()));
}

TEST(ObsTrace, CompileGateMatchesBuild) {
#if GRAFTMATCH_TRACE_ENABLED
  EXPECT_TRUE(obs::compiled());
#else
  EXPECT_FALSE(obs::compiled());
  obs::arm();  // no-ops must stay callable
  EXPECT_FALSE(obs::active());
  EXPECT_EQ(obs::timestamp(), 0);
  EXPECT_FALSE(obs::begin_run("x", 1));
  obs::end_run();
  obs::disarm();
#endif
}

// Every registry solver, serial and parallel, must produce a
// well-formed trace AND the correct matching while traced.
TEST(ObsTrace, EveryRegistrySolverTracesCleanly) {
  if (!obs::compiled()) GTEST_SKIP() << "GRAFTMATCH_TRACE=OFF build";
  const PlantedGraph planted = test_instance();
  obs::arm();
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    RunConfig config;
    config.threads = 3;
    Matching m(planted.graph.num_x(), planted.graph.num_y());
    const RunStats stats = solver.run(planted.graph, m, config);
    EXPECT_EQ(m.cardinality(), planted.maximum_cardinality) << solver.name;

    const obs::RunTrace& trace = obs::last_run();
    EXPECT_EQ(trace.algorithm, stats.algorithm) << solver.name;
    check_trace_invariants(trace, std::max(stats.threads_used, 1));

    EXPECT_TRUE(stats.obs.collected) << solver.name;
    EXPECT_EQ(stats.obs.events,
              static_cast<std::int64_t>(trace.events.size()))
        << solver.name;

    std::string error;
    const std::string json = obs::chrome_trace_json(trace);
    EXPECT_TRUE(testing::json_valid(json, &error))
        << solver.name << ": " << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find(stats.algorithm), std::string::npos);
  }
  obs::disarm();
}

// The trace must agree with the independently collected RunStats
// instrumentation: phase rows, frontier samples, and the JSON obs block.
TEST(ObsTrace, GraftTraceMatchesPhaseStatsAndFrontierTrace) {
  if (!obs::compiled()) GTEST_SKIP() << "GRAFTMATCH_TRACE=OFF build";
  const PlantedGraph planted = test_instance();
  obs::arm();
  RunConfig config;
  config.threads = 2;
  config.collect_phase_stats = true;
  config.collect_frontier_trace = true;
  Matching m(planted.graph.num_x(), planted.graph.num_y());
  const RunStats stats = ms_bfs_graft(planted.graph, m, config);
  obs::disarm();

  const obs::TraceSummary summary = obs::summarize(obs::last_run());
  ASSERT_EQ(summary.phases.size(), stats.phase_stats.size());
  std::int64_t traced_bottom_up = 0;
  for (std::size_t i = 0; i < summary.phases.size(); ++i) {
    const obs::PhaseAnatomy& traced = summary.phases[i];
    const PhaseStats& recorded = stats.phase_stats[i];
    traced_bottom_up += traced.bottom_up_levels;
    EXPECT_EQ(traced.phase, recorded.phase);
    EXPECT_EQ(traced.levels, recorded.levels);
    EXPECT_EQ(traced.bottom_up_levels, recorded.bottom_up_levels);
    EXPECT_EQ(traced.augmentations, recorded.augmentations);
    EXPECT_EQ(traced.grafted, recorded.grafted);
    EXPECT_GE(traced.seconds, 0.0);
  }
  EXPECT_EQ(traced_bottom_up, stats.direction.bottom_up_levels);

  // Frontier counter events replicate the frontier_trace samples
  // exactly (size and direction, in order).
  std::vector<const obs::Event*> counters;
  for (const obs::Event& event : obs::last_run().events) {
    if (event.kind == obs::EventKind::kCounter &&
        std::string_view(event.name->name) == "frontier") {
      counters.push_back(&event);
    }
  }
  ASSERT_EQ(counters.size(), stats.frontier_trace.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i]->arg0, stats.frontier_trace[i].frontier_size);
    EXPECT_EQ(counters[i]->arg1 != 0, stats.frontier_trace[i].bottom_up);
  }

  // Summary counters land in RunStats::obs.
  ASSERT_TRUE(stats.obs.collected);
  EXPECT_EQ(stats.obs.levels,
            static_cast<std::int64_t>(stats.frontier_trace.size()));
  EXPECT_EQ(stats.obs.grafts + stats.obs.rebuilds,
            static_cast<std::int64_t>(stats.phase_stats.size()) - 1)
      << "every phase but the last ends in a graft-or-rebuild decision";
  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error;

  // Step spans reconcile: trace step totals never exceed the stopwatch
  // columns (each span is emitted strictly inside its lap).
  const StepSeconds& s = stats.step_seconds;
  EXPECT_LE(summary.top_down, s.top_down + 1e-9);
  EXPECT_LE(summary.bottom_up, s.bottom_up + 1e-9);
  EXPECT_LE(summary.augment, s.augment + 1e-9);
  EXPECT_LE(summary.graft, s.graft + 1e-9);
  EXPECT_LE(summary.statistics, s.statistics + 1e-9);
}

TEST(ObsTrace, UnarmedRunsCollectNothing) {
  if (!obs::compiled()) GTEST_SKIP() << "GRAFTMATCH_TRACE=OFF build";
  obs::disarm();
  const PlantedGraph planted = test_instance();
  Matching m(planted.graph.num_x(), planted.graph.num_y());
  const RunStats stats = ms_bfs_graft(planted.graph, m);
  EXPECT_FALSE(stats.obs.collected);
}

TEST(ObsTrace, NestedBeginRunRefused) {
  if (!obs::compiled()) GTEST_SKIP() << "GRAFTMATCH_TRACE=OFF build";
  obs::arm();
  ASSERT_TRUE(obs::begin_run("outer", 1));
  EXPECT_FALSE(obs::begin_run("inner", 1)) << "no nested trace runs";
  obs::end_run();
  obs::disarm();
  EXPECT_EQ(obs::last_run().algorithm, "outer");
  EXPECT_FALSE(obs::begin_run("disarmed", 1));
}

// Per-thread rings are bounded: a tiny capacity must drop events (and
// report them) instead of growing without bound or corrupting state.
TEST(ObsTrace, BoundedRingDropsAndReports) {
  if (!obs::compiled()) GTEST_SKIP() << "GRAFTMATCH_TRACE=OFF build";
  ::setenv("GRAFTMATCH_TRACE_CAPACITY", "16", 1);
  const PlantedGraph planted = test_instance();
  obs::arm();
  Matching m(planted.graph.num_x(), planted.graph.num_y());
  const RunStats stats = ms_bfs_graft(planted.graph, m);
  obs::disarm();
  ::unsetenv("GRAFTMATCH_TRACE_CAPACITY");

  EXPECT_EQ(m.cardinality(), planted.maximum_cardinality)
      << "dropping trace events must not perturb the algorithm";
  EXPECT_TRUE(stats.obs.collected);
  EXPECT_GT(stats.obs.dropped, 0) << "a 16-event ring cannot hold a run";
  // Still a structurally valid (if truncated) Chrome trace document.
  std::string error;
  EXPECT_TRUE(
      testing::json_valid(obs::chrome_trace_json(obs::last_run()), &error))
      << error;
}

TEST(ObsTrace, ChromeTraceFileWriting) {
  if (!obs::compiled()) GTEST_SKIP() << "GRAFTMATCH_TRACE=OFF build";
  const PlantedGraph planted = test_instance();
  obs::arm();
  Matching m(planted.graph.num_x(), planted.graph.num_y());
  (void)ms_bfs_graft(planted.graph, m);
  obs::disarm();

  const std::string path = ::testing::TempDir() + "/graftmatch_trace.json";
  EXPECT_TRUE(obs::write_chrome_trace_file(path, obs::last_run()));
  EXPECT_FALSE(
      obs::write_chrome_trace_file("/nonexistent/dir/t.json", obs::last_run()));
}

}  // namespace
}  // namespace graftmatch
