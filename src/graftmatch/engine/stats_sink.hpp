// Phase-scoped stats sink: uniform RunStats filling for every solver.
//
// The paper's figures need the same run anatomy from every algorithm
// (Fig. 1 algorithmic counters, Fig. 4 search rate, Fig. 6 step
// breakdown), but before the engine existed each solver filled RunStats
// by hand and most left the step breakdown empty. StatsSink owns the
// run timer and one accumulating stopwatch per step category; a solver
// opens scoped laps around its steps and calls finish() once, and the
// header/footer fields (algorithm, cardinalities, seconds, step
// breakdown, threads_used) come out consistent by construction.
//
// The sink is also the engine's gateway into the obs/ tracing layer:
// construction opens a trace run when collection is armed, every step
// lap emits begin/end trace events strictly inside its stopwatch
// measurement (so trace step totals reconcile with the stopwatch
// columns from below), and finish() flushes the trace and distills it
// into RunStats::obs.
#pragma once

#include <omp.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/obs/summary.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/context.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch::engine {

/// Closes the trace run `session` owns and stamps the counters folded
/// from it into `stats.obs` (for StatsSink's runs and engine::run's).
inline void distill_obs(SessionContext& session, RunStats& stats) {
  session.trace().end_run();
  stats.obs = obs::summarize(session.trace().last_run()).counters;
}

/// Step categories of StepSeconds (Fig. 6), in field order.
enum class Step { kTopDown, kBottomUp, kAugment, kGraft, kStatistics };

class StatsSink {
 public:
  /// Stamps the run header into `stats` and starts the run timer; the
  /// trace run targets `session`, so concurrent sessions fill disjoint
  /// RunStats. Construct AFTER the solve's ThreadCountGuard: `parallel`
  /// solvers stamp threads_used once, here, as the solve_width() the
  /// guard set, clamped by OMP_THREAD_LIMIT. It is this thread's own
  /// ICV, so no concurrent run can overwrite it.
  StatsSink(SessionContext& session, RunStats& stats, std::string algorithm,
            const Matching& initial, bool parallel)
      : stats_(stats), session_(session) {
    stats_.algorithm = std::move(algorithm);
    stats_.initial_cardinality = initial.cardinality();
    stats_.threads_used =
        parallel ? std::min(omp_get_max_threads(), omp_get_thread_limit())
                 : 1;
    owns_trace_ = session.trace().begin_run(stats_.algorithm.c_str(),
                                            stats_.threads_used);
  }

  /// Ambient-session compatibility ctor for pre-session call sites.
  StatsSink(RunStats& stats, std::string algorithm, const Matching& initial,
            bool parallel)
      : StatsSink(ambient_session(), stats, std::move(algorithm), initial,
                  parallel) {}

  /// The accumulating stopwatch behind one step category, for direct
  /// reads; prefer start()/stop() for timing so trace spans stay
  /// paired with the stopwatch laps.
  Stopwatch& watch(Step step) noexcept {
    return watches_[static_cast<std::size_t>(step)];
  }

  /// Manual lap across scopes. The trace begin lands after the
  /// stopwatch starts and the trace end before it stops, so every
  /// trace span nests inside its stopwatch lap and the summed trace
  /// durations never exceed the StepSeconds columns.
  void start(Step step) noexcept {
    watch(step).start();
    obs::emit_begin(step_event(step));
  }
  void stop(Step step) noexcept {
    obs::emit_end(step_event(step));
    watch(step).stop();
  }

  /// RAII lap on a step category (relies on C++17 guaranteed elision).
  class ScopedStep {
   public:
    ScopedStep(StatsSink& sink, Step step) noexcept
        : sink_(sink), step_(step) {
      sink_.start(step_);
    }
    ~ScopedStep() { sink_.stop(step_); }
    ScopedStep(const ScopedStep&) = delete;
    ScopedStep& operator=(const ScopedStep&) = delete;

   private:
    StatsSink& sink_;
    Step step_;
  };
  ScopedStep scoped(Step step) noexcept { return ScopedStep(*this, step); }

  /// Stamps the run footer: final cardinality, wall time, the step
  /// breakdown (time not covered by any lap lands in `other`), and --
  /// when this run owned an armed trace -- the flushed trace's counters.
  void finish(const Matching& final_matching) {
    stats_.final_cardinality = final_matching.cardinality();
    stats_.seconds = timer_.elapsed();
    StepSeconds& s = stats_.step_seconds;
    s.top_down = watch(Step::kTopDown).seconds();
    s.bottom_up = watch(Step::kBottomUp).seconds();
    s.augment = watch(Step::kAugment).seconds();
    s.graft = watch(Step::kGraft).seconds();
    s.statistics = watch(Step::kStatistics).seconds();
    s.other = 0.0;
    s.other = std::max(0.0, stats_.seconds - s.total());
    if (owns_trace_) distill_obs(session_, stats_);
  }

 private:
  static const obs::EventName& step_event(Step step) noexcept {
    switch (step) {
      case Step::kTopDown: return obs::names::kTopDown;
      case Step::kBottomUp: return obs::names::kBottomUp;
      case Step::kAugment: return obs::names::kAugment;
      case Step::kGraft: return obs::names::kGraft;
      case Step::kStatistics: return obs::names::kStatistics;
    }
    return obs::names::kStatistics;  // unreachable
  }

  RunStats& stats_;
  SessionContext& session_;
  Timer timer_;
  std::array<Stopwatch, 5> watches_;
  bool owns_trace_ = false;
};

}  // namespace graftmatch::engine
