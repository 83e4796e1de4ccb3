// Small OpenMP helpers shared by the algorithm implementations.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "graftmatch/runtime/context.hpp"
#include "graftmatch/types.hpp"

#if defined(__SANITIZE_THREAD__)
#define GRAFTMATCH_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GRAFTMATCH_TSAN_ACTIVE 1
#endif
#endif
#ifndef GRAFTMATCH_TSAN_ACTIVE
#define GRAFTMATCH_TSAN_ACTIVE 0
#endif

namespace graftmatch {

/// Width of the team most recently opened by parallel_region() under
/// the calling thread's AMBIENT SESSION (runtime/context.hpp): the
/// requested width before the region opens, overwritten from inside the
/// region with the width the runtime actually granted (they differ
/// under OMP_THREAD_LIMIT or nesting restrictions). A test probe:
/// regression tests for RunConfig::threads pin a thread count, run a
/// solver, and assert the regions it opened were that wide (see
/// tests/test_engine_registry.cpp); the engine's StatsSink reads it to
/// stamp RunStats::threads_used. Relaxed is enough -- probing callers
/// sequence the read after the solver returns. Unbound threads resolve
/// to the default session, so pre-session callers see exactly the old
/// process-global behavior; concurrent sessions each probe their own.
inline std::atomic<int>& last_team_width() noexcept {
  return ambient_session().team_width();
}

/// Count of parallel_region() calls issued so far under the calling
/// thread's ambient session. StatsSink snapshots this at run start: if
/// it moved by finish() time, at least one region ran and
/// last_team_width() holds a granted width for this run rather than a
/// stale or guessed value.
inline std::atomic<std::uint64_t>& region_epoch() noexcept {
  return ambient_session().region_epoch();
}

/// Runs `fn()` on every thread of an OpenMP parallel team. This is the
/// library's only way to open a parallel region; `#pragma omp for`
/// inside `fn` binds to the team as an orphaned worksharing construct.
/// `num_threads <= 0` uses the runtime default.
///
/// Session propagation: the opener's ambient session (see
/// runtime/context.hpp) is re-bound on every team thread before `fn`
/// runs, so emission sites deep inside the body (obs::emit_*,
/// stress::maybe_yield, nested width probes) resolve to the session
/// that opened the region, not to whatever the pool thread was last
/// bound to. The binding is scoped to the region.
///
/// Why a wrapper instead of a bare `#pragma omp parallel`: GCC's
/// libgomp is not TSan-instrumented, so the synchronization that hands
/// a region's shared-variable frame (.omp_data, materialized on the
/// serial thread's stack) to reused pool threads is invisible to the
/// race detector. Workers read that frame before any user statement
/// runs, which TSan reports as a race against whatever the serial
/// thread last wrote at those stack addresses -- either the frame
/// setup itself or stale locals of an earlier region's body. Blanket
/// `race:gomp_*` suppressions are not an answer: suppressions match
/// ANY frame of EITHER stack, and worker stacks are rooted in
/// gomp_thread_start, so they also swallow *real* races in library
/// code (see tools/tsan.supp).
///
/// Under TSan this wrapper removes the capture frame instead of trying
/// to annotate around it. The body is published through a static slot
/// with a release store and fetched by each team thread with an
/// acquire load -- the thread's first instrumented access -- and
/// `default(none)` turns any accidental capture into a compile error.
/// Every access workers make to serial-thread memory therefore goes
/// through the acquired body pointer and is ordered after everything
/// the serial thread wrote before the region. The mirror-image join
/// edge is a release increment per thread after `fn()` returns
/// (destructors of `fn`'s locals, e.g. FrontierQueue handles that
/// flush into shared storage, have already run) and an acquire load on
/// the serial side. Note that OpenMP `reduction` combines *after* the
/// body returns and `critical` uses uninstrumented locks, so bodies
/// accumulate into shared counters with fetch_add (or a std::mutex)
/// instead of using either clause.
///
/// The slot is per call site (one static per lambda type). Team width 1
/// skips the slot entirely (the encountering thread runs the body
/// itself, so there is no frame handoff to hide) and is safe to enter
/// from any number of host threads at once -- this is the serving
/// layer's default shape (solver_threads = 1 per worker session, each
/// serve/ worker opening its own regions). Wider regions serialize
/// concurrent openers of the SAME call site through a per-call-site
/// mutex in TSan builds only, so two sessions may open wide regions
/// concurrently without cross-publishing bodies; release builds take
/// no lock (libgomp hands each `#pragma omp parallel` its own frame,
/// the slot mechanism is not used, and teams are independent).
template <typename Fn>
inline void parallel_region(int num_threads, Fn&& fn) {
  SessionContext& session = ambient_session();
  const int team = num_threads > 0 ? num_threads : omp_get_max_threads();
  session.team_width().store(team, std::memory_order_relaxed);
  session.region_epoch().fetch_add(1, std::memory_order_relaxed);
  auto body = [&session, &fn] {
    const SessionScope bind(session);
    if (omp_get_thread_num() == 0) {
      session.team_width().store(omp_get_num_threads(),
                                 std::memory_order_relaxed);
    }
    fn();
  };
#if GRAFTMATCH_TSAN_ACTIVE
  if (team == 1) {
    // A one-thread team is executed by the encountering thread itself:
    // libgomp never hands the capture frame to a reused pool thread, so
    // the false-positive the slot mechanism works around cannot occur
    // and plain capture is TSan-clean. Taking this branch also lifts
    // the slot's one-opener-per-call-site restriction for one-wide
    // regions, keeping them fully concurrent across host threads.
#pragma omp parallel num_threads(1)
    { body(); }
    return;
  }
  using Body = decltype(body);
  static std::mutex site_mutex;
  static std::atomic<Body*> slot{nullptr};
  static std::atomic<std::uint64_t> joins{0};
  const std::scoped_lock site_lock(site_mutex);
  slot.store(std::addressof(body), std::memory_order_release);
#pragma omp parallel num_threads(team) default(none) shared(slot, joins)
  {
    Body& published = *slot.load(std::memory_order_acquire);
    published();
    joins.fetch_add(1, std::memory_order_release);
  }
  (void)joins.load(std::memory_order_acquire);
#else
#pragma omp parallel num_threads(team)
  { body(); }
#endif
}

/// parallel_region with the runtime-default thread count.
template <typename Fn>
inline void parallel_region(Fn&& fn) {
  parallel_region(0, std::forward<Fn>(fn));
}

/// Scoped override of the OpenMP thread count; restores the previous
/// value on destruction. `threads <= 0` leaves the runtime default.
///
/// Nesting contract: active guards on one thread must be destroyed in
/// LIFO order (stack scoping gives this for free), and nothing else may
/// change the thread count while a guard is active -- otherwise the
/// restores replay stale values in some interleaving and the last
/// writer wins. Debug builds assert both: the guard records its depth
/// in a thread_local nesting counter at construction and checks at
/// destruction that it is the innermost active guard and that the
/// value it applied is still in force. The OpenMP nthreads-var is a
/// per-thread ICV, so guards on different host threads (serve/
/// workers, concurrent sessions) never interact.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) noexcept
      : previous_(omp_get_max_threads()),
        applied_(threads),
        active_(threads > 0) {
    if (active_) {
      omp_set_num_threads(threads);
      depth_ = ++nesting_depth();
    }
  }
  ~ThreadCountGuard() {
    if (active_) {
      assert(nesting_depth() == depth_ &&
             "ThreadCountGuard destroyed out of LIFO order");
      assert(omp_get_max_threads() == applied_ &&
             "thread count changed behind an active ThreadCountGuard");
      --nesting_depth();
      omp_set_num_threads(previous_);
    }
  }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  static int& nesting_depth() noexcept {
    thread_local int depth = 0;
    return depth;
  }

  int previous_;
  int applied_;
  int depth_ = 0;
  bool active_;
};

/// Graph edges each thread of a solve's team must bring. A solve opens
/// a few parallel regions per BFS level, each costing 3-5 us of
/// fork/join on a 4-vCPU Xeon VM, where one thread traverses an edge in
/// roughly 5 ns: a share of 8192 edges (~40 us of work) pays for about
/// ten regions. On that VM MS-BFS-Graft on copapers-like graphs ran
/// 0.28-0.42x as fast at widths 2-4 as at width 1 below 10k edges, and
/// first beat width 1 at 43k edges (width 4, 1.12x).
inline constexpr std::int64_t kEdgesPerThread = 8192;

/// The width of one solve over a graph of `edges` edges:
/// clamp(ceil(edges / kEdgesPerThread), 1, cap), where the cap is
/// `threads`, or the runtime default when `threads <= 0`. Solvers and
/// parallel initializers open their ThreadCountGuard at this width.
inline int solve_width(std::int64_t edges, int threads) noexcept {
  const int cap = threads > 0 ? threads : omp_get_max_threads();
  const std::int64_t wanted = (edges + kEdgesPerThread - 1) / kEdgesPerThread;
  return static_cast<int>(std::clamp<std::int64_t>(wanted, 1, cap));
}

/// Exclusive prefix sum; returns the total. Serial (inputs here are
/// per-thread or per-bucket arrays, far too small to parallelize).
template <typename T>
T exclusive_prefix_sum(std::vector<T>& values) {
  T running{};
  for (auto& value : values) {
    T next = running + value;
    value = running;
    running = next;
  }
  return running;
}

/// First-touch initialization: write `value` to every element from inside
/// a parallel loop so pages are faulted in by the threads that will use
/// them (the NUMA placement technique the paper relies on via numactl;
/// on a single socket this degenerates to a parallel fill). For pages
/// that are genuinely untouched, pair with storage that was allocated
/// without a serial value-initialization pass (see FirstTouchBuffer in
/// runtime/epoch_array.hpp) -- std::vector's resize zero-fills serially
/// and would fault every page on the constructing thread first.
template <typename T>
void first_touch_fill(T* data, std::size_t count, const T& value) {
  const std::int64_t n = static_cast<std::int64_t>(count);
  parallel_region([&] {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      data[static_cast<std::size_t>(i)] = value;
    }
  });
}

template <typename T>
void first_touch_fill(std::vector<T>& data, const T& value) {
  first_touch_fill(data.data(), data.size(), value);
}

}  // namespace graftmatch
