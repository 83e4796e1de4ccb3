// Structured tracing: low-overhead per-thread event collection for the
// traversal engine.
//
// The paper's evaluation lives on per-phase anatomy (Fig. 6 step
// breakdowns, Fig. 8 frontier traces); end-of-run aggregates cannot
// show a regression INSIDE a phase (e.g. the direction switch firing a
// level late). This subsystem records phase/step begin-end spans,
// per-level frontier counters, per-thread kernel spans, and decision
// instants (direction switches, graft-vs-rebuild) into thread-private
// rings, then flushes them at run end into a RunTrace that the Chrome
// trace writer (chrome_trace.hpp), the summarizer (summary.hpp), and
// RunStats::obs consume.
//
// Ownership model: every ring, the armed/active flags, and the flushed
// RunTrace belong to a TraceSink. Each SessionContext
// (runtime/context.hpp) owns one sink, so two sessions tracing
// concurrently in one process never see each other's events. The
// free-function API below (arm/begin_run/emit_*/last_run) is the
// emission surface the solvers use; it routes to the AMBIENT session's
// sink -- the session bound to the calling thread by SessionScope and
// propagated into OpenMP teams by parallel_region(), falling back to
// the process-wide default session when no binding is active. One-shot
// drivers that never create a session therefore keep today's behavior
// (one de-facto global trace), while sessions get full isolation.
//
// Concurrency contract (matches parallel_region()'s happens-before
// discipline, so the TSan tier stays suppression-free):
//  * Each thread writes only its own ring; rings are registered once
//    per (sink, thread) under the sink's mutex and then touched
//    exclusively by their owner.
//  * The thread that owns the run clears rings in begin_run() and
//    snapshots them in end_run(), both while no parallel region is
//    open; the region fork edge (release slot store -> acquire body
//    load) orders the clear before any worker write, and the join edge
//    orders every worker write before the snapshot.
//  * The active() gate is a relaxed atomic: emitters only need to see
//    a value, not synchronize through it.
//  * Distinct sinks share nothing but the thread-slot counter, so
//    concurrent sessions may trace concurrently.
//
// Cost model: compiled out entirely at GRAFTMATCH_TRACE_ENABLED=0
// (every emit call is an empty constexpr-false branch). When compiled
// in but not armed, each emission site costs one ambient-session lookup
// plus one relaxed atomic load. Events are emitted per LEVEL and per
// PHASE, never per edge, so even armed runs stay within a few percent
// of untraced time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef GRAFTMATCH_TRACE_ENABLED
#define GRAFTMATCH_TRACE_ENABLED 1
#endif

namespace graftmatch::obs {

/// Static identity of an event type: the display name plus labels for
/// the two payload slots (nullptr = slot unused). Emit sites pass the
/// canonical constants from obs::names, so events carry one pointer
/// instead of a string.
struct EventName {
  const char* name;
  const char* arg0;
  const char* arg1;
};

namespace names {
/// Whole-run span, emitted by StatsSink (arg0 = threads).
inline constexpr EventName kRun{"run", "threads", nullptr};
/// One repeat-until phase of MS-BFS-Graft (arg0 = 1-based phase,
/// arg1 on the End event = augmentations found).
inline constexpr EventName kPhase{"phase", "phase", "augmentations"};
/// Step spans, one per StatsSink lap. Names match engine::Step.
inline constexpr EventName kTopDown{"top_down", nullptr, nullptr};
inline constexpr EventName kBottomUp{"bottom_up", nullptr, nullptr};
inline constexpr EventName kAugment{"augment", nullptr, nullptr};
inline constexpr EventName kGraft{"graft", nullptr, nullptr};
inline constexpr EventName kStatistics{"statistics", nullptr, nullptr};
/// Per-level frontier counter (arg0 = |F|, arg1 = 1 for bottom-up).
inline constexpr EventName kFrontier{"frontier", "size", "bottom_up"};
/// Per-thread kernel spans from frontier_kernels.hpp (arg0 = edges
/// scanned by that thread, arg1 = successful visits).
inline constexpr EventName kKernelFrontierEdge{"kernel.frontier_edge",
                                               "edges", "visits"};
inline constexpr EventName kKernelReverse{"kernel.reverse", "edges",
                                          "visits"};
inline constexpr EventName kKernelChunked{"kernel.chunked", "edges",
                                          "visits"};
inline constexpr EventName kKernelWord{"kernel.word", "edges", "visits"};
/// Direction flip within a phase (arg0 = level, arg1 = new direction).
inline constexpr EventName kDirectionSwitch{"direction_switch", "level",
                                            "bottom_up"};
/// Run-start instant naming the bottom-up kernel arm (arg0 =
/// BottomUpKernel as int; the string form lives in the `direction`
/// RunStats block).
inline constexpr EventName kBottomUpKernel{"bottom_up_kernel", "kernel",
                                           nullptr};
/// Step 3 decision instants (arg0 = |activeX|, arg1 = |renewableY|).
inline constexpr EventName kGraftChosen{"graft_chosen", "active_x",
                                        "renewable_y"};
inline constexpr EventName kRebuildChosen{"rebuild_chosen", "active_x",
                                          "renewable_y"};
/// Epoch-bookkeeping instants (runtime/epoch_array.hpp): workspace
/// binding at run start (arg0 = 1 when the arrays were warm-reused from
/// a previous run, arg1 = runs prepared so far on this workspace) and
/// the one-time O(ny) candidate-pool build (arg0 = pool size).
inline constexpr EventName kWorkspacePrepared{"workspace_prepared", "warm",
                                              "runs"};
inline constexpr EventName kPoolBuild{"pool_build", "candidates", nullptr};
/// Kernelization pre-pass spans (src/graftmatch/reduce/). The whole
/// pipeline (arg0 = ReduceMode as int), one span per reduction round
/// (arg0 = 1-based round, arg1 on the End event = ops applied), the
/// kernel compaction (arg0 = kernel edges), and the matching
/// reconstruction (arg0 = forced matches replayed).
inline constexpr EventName kReduce{"reduce", "mode", nullptr};
inline constexpr EventName kReduceRound{"reduce.round", "round", "ops"};
inline constexpr EventName kReduceCompact{"reduce.compact", "kernel_edges",
                                          nullptr};
inline constexpr EventName kReduceReconstruct{"reduce.reconstruct", "forced",
                                              nullptr};
/// Serving-layer spans (src/graftmatch/serve/): one span per request a
/// server worker executes (arg0 = roster entry index, arg1 on the End
/// event = matched cardinality).
inline constexpr EventName kServeRequest{"serve.request", "roster_entry",
                                         "cardinality"};
/// One span per dispatched solve (arg0 = requests it answered, joiners
/// included; arg1 = matched cardinality); a request served alone
/// answers one.
inline constexpr EventName kServeBatch{"serve.batch", "group", "cardinality"};
/// Incremental-matcher spans (src/graftmatch/dynamic/): one span per
/// applied churn batch (arg0 = batch size, arg1 on the End event =
/// cardinality after), one per localized re-augmentation pass (arg0 =
/// searches launched, arg1 = augmenting paths applied), and one per
/// payoff-gated compaction (arg0 = live edges folded into the CSR).
inline constexpr EventName kDynamicApply{"dynamic.apply", "edges",
                                         "cardinality"};
inline constexpr EventName kDynamicReaugment{"dynamic.reaugment", "searches",
                                             "paths"};
inline constexpr EventName kDynamicCompact{"dynamic.compact", "live_edges",
                                           nullptr};
}  // namespace names

/// Chrome trace_event phase kinds this subsystem emits.
enum class EventKind : std::uint8_t {
  kBegin,     ///< "B": span opens
  kEnd,       ///< "E": span closes
  kComplete,  ///< "X": span with duration, emitted once at its end
  kCounter,   ///< "C": sampled value
  kInstant,   ///< "i": point event
};

struct Event {
  const EventName* name = nullptr;
  EventKind kind = EventKind::kInstant;
  std::int32_t tid = 0;     ///< ring registration order (0 = first emitter)
  std::int64_t ts_ns = 0;   ///< relative to run begin after the snapshot
  std::int64_t dur_ns = 0;  ///< kComplete only
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
};

/// The flushed result of one traced run: events grouped by thread
/// (contiguous per tid, timestamp-ordered within a tid).
struct RunTrace {
  std::string algorithm;
  std::vector<Event> events;
  std::int64_t dropped = 0;  ///< events lost to full rings (see capacity)
  int thread_count = 0;      ///< rings that contributed at least one event
  bool collected = false;
};

#if GRAFTMATCH_TRACE_ENABLED

/// One session's trace collector: the armed/active flags, the
/// per-thread event rings, and the flushed RunTrace of the most recent
/// run. A sink must outlive every run recorded into it (a
/// SessionContext owns its sink for exactly that reason).
///
/// begin_run()/end_run() are called by the thread that owns the run (an
/// engine StatsSink or driver), never concurrently with each other on
/// one sink; emit() may be called from any thread bound to the owning
/// session, including every thread of an open parallel team.
class TraceSink {
 public:
  TraceSink();
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Arm / disarm collection. Arming alone records nothing: the next
  /// begin_run/end_run pair collects. Ring capacity is re-read from
  /// GRAFTMATCH_TRACE_CAPACITY (events per thread, default 1<<17) at
  /// every begin_run().
  void arm() noexcept { armed_.store(true, std::memory_order_relaxed); }
  void disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Run lifecycle. begin_run() returns true when this call owns the
  /// trace (armed, and no run already active on this sink -- a nested
  /// solver run records into its owner's trace); only the owner calls
  /// end_run(), which snapshots every ring into last_run().
  bool begin_run(const char* algorithm, std::int64_t threads);
  void end_run();
  const RunTrace& last_run() const noexcept { return last_run_; }

  /// Collection in progress (between an owning begin_run and its
  /// end_run). Relaxed: the fork/join edges of parallel_region() order
  /// the owner's flips against worker emissions.
  bool collecting() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Append one event to the calling thread's ring (drop-counted once
  /// the ring is full). Callers gate on collecting().
  void emit(const EventName& name, EventKind kind, std::int64_t ts_ns,
            std::int64_t dur_ns, std::int64_t arg0, std::int64_t arg1);

 private:
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();

  /// Process-unique sink identity; keys the thread-local ring cache so
  /// a stale cache entry can never alias a new sink at a reused
  /// address.
  const std::uint64_t id_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> active_{false};
  std::size_t capacity_;
  std::string run_algorithm_;
  RunTrace last_run_;
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

#else  // GRAFTMATCH_TRACE_ENABLED == 0: the sink is an empty shell so
       // SessionContext keeps a uniform shape across build modes.

class TraceSink {
 public:
  void arm() noexcept {}
  void disarm() noexcept {}
  bool armed() const noexcept { return false; }
  bool begin_run(const char*, std::int64_t) { return false; }
  void end_run() {}
  const RunTrace& last_run() const noexcept {
    static const RunTrace empty;
    return empty;
  }
  bool collecting() const noexcept { return false; }
  void emit(const EventName&, EventKind, std::int64_t, std::int64_t,
            std::int64_t, std::int64_t) {}
};

#endif  // GRAFTMATCH_TRACE_ENABLED

/// Ambient-session compatibility surface: each call resolves the
/// calling thread's bound session (SessionScope / parallel_region
/// propagation; the process default session when unbound) and operates
/// on that session's sink. One-shot drivers and the existing tests use
/// these; session-aware code calls the TraceSink methods directly.
void arm();
void disarm();
bool armed();
bool begin_run(const char* algorithm, std::int64_t threads);
void end_run();
const RunTrace& last_run();

#if GRAFTMATCH_TRACE_ENABLED

namespace detail {
std::int64_t now_ns();
/// Append to the ambient session's sink; no-ops unless that sink is
/// collecting.
void emit_now(const EventName& name, EventKind kind, std::int64_t arg0,
              std::int64_t arg1);
void emit_span(const EventName& name, std::int64_t start_ns,
               std::int64_t arg0, std::int64_t arg1);
}  // namespace detail

constexpr bool compiled() noexcept { return true; }
/// True when the ambient session's sink is collecting.
bool active() noexcept;
/// Span start marker for emit_complete(); 0 when not collecting.
inline std::int64_t timestamp() noexcept {
  return active() ? detail::now_ns() : 0;
}
inline void emit_begin(const EventName& name, std::int64_t arg0 = 0,
                       std::int64_t arg1 = 0) {
  detail::emit_now(name, EventKind::kBegin, arg0, arg1);
}
inline void emit_end(const EventName& name, std::int64_t arg0 = 0,
                     std::int64_t arg1 = 0) {
  detail::emit_now(name, EventKind::kEnd, arg0, arg1);
}
inline void emit_counter(const EventName& name, std::int64_t arg0,
                         std::int64_t arg1 = 0) {
  detail::emit_now(name, EventKind::kCounter, arg0, arg1);
}
inline void emit_instant(const EventName& name, std::int64_t arg0 = 0,
                         std::int64_t arg1 = 0) {
  detail::emit_now(name, EventKind::kInstant, arg0, arg1);
}
/// Close a span opened with timestamp(). No-op when the start marker is
/// 0 (collection was off when the span opened).
inline void emit_complete(const EventName& name, std::int64_t start_ns,
                          std::int64_t arg0 = 0, std::int64_t arg1 = 0) {
  if (start_ns != 0) detail::emit_span(name, start_ns, arg0, arg1);
}

#else  // GRAFTMATCH_TRACE_ENABLED == 0: every emitter folds to nothing.

constexpr bool compiled() noexcept { return false; }
constexpr bool active() noexcept { return false; }
constexpr std::int64_t timestamp() noexcept { return 0; }
constexpr void emit_begin(const EventName&, std::int64_t = 0,
                          std::int64_t = 0) noexcept {}
constexpr void emit_end(const EventName&, std::int64_t = 0,
                        std::int64_t = 0) noexcept {}
constexpr void emit_counter(const EventName&, std::int64_t,
                            std::int64_t = 0) noexcept {}
constexpr void emit_instant(const EventName&, std::int64_t = 0,
                            std::int64_t = 0) noexcept {}
constexpr void emit_complete(const EventName&, std::int64_t,
                             std::int64_t = 0, std::int64_t = 0) noexcept {}

#endif  // GRAFTMATCH_TRACE_ENABLED

}  // namespace graftmatch::obs
