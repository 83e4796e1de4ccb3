// Session contexts: the per-session home of everything that used to be
// process-global runtime state.
//
// The one-shot tools (matching_tool, the benches, the diff harness) run
// one solve at a time, so a single set of process-wide globals -- the
// team-width/region-epoch probe atomics in runtime/parallel.hpp, the
// obs trace rings, the thread_local GraftWorkspace -- was invisible.
// The serving layer (src/graftmatch/serve/) runs many independent
// solves concurrently in one process, and under globals those solves
// corrupt each other's stats, traces, and team probes. SessionContext
// gathers all of that state into one object:
//
//  * team_width() / region_epoch(): the parallel_region() probe pair
//    (see runtime/parallel.hpp) -- per session, so one request's
//    regions can't move another request's probe;
//  * trace(): a private obs::TraceSink, so two armed sessions flush
//    two independent RunTraces;
//  * workspaces(): a warm GraftWorkspace pool with explicit
//    acquire/release, replacing the 3-arg ms_bfs_graft overload's
//    leaked thread_local workspace;
//  * a per-session yield-jitter period overriding the process-wide
//    stress knob (stress builds only).
//
// Binding model. Code finds its session AMBIENTLY: a thread_local
// pointer set by SessionScope (RAII) and propagated onto every thread
// of an OpenMP team by parallel_region(), so deep emission sites
// (obs::emit_* inside kernels, stress::maybe_yield inside atomics)
// need no signature change. A thread with no binding uses the process
// default_session(), which is what makes every pre-session signature
// keep its exact old behavior: one de-facto global context. Session-
// aware entry points (engine::run and the context-first solver
// overloads) install a SessionScope at the top; everything beneath
// inherits it.
//
// Thread-safety: a SessionContext may be shared by many threads (its
// members are individually thread-safe), but one *solve* inside a
// session is still single-owner -- the engine's drivers open parallel
// teams, they are not re-entrant per session. The serve/ layer gives
// each server worker its own long-lived session, which is the intended
// pattern.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graftmatch/obs/trace.hpp"

namespace graftmatch {

struct GraftWorkspace;

/// Bounded LIFO pool of warm GraftWorkspaces. acquire() prefers the
/// most recently released workspace (warmest pages, best chance that
/// prepare() takes the cheap same-dimensions path) and allocates when
/// the pool is empty; release() returns a workspace for reuse, keeping
/// at most max_idle() of them alive. All methods are thread-safe.
class WorkspacePool {
 public:
  WorkspacePool();
  ~WorkspacePool();
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Hand out a workspace (warmest idle one, or a fresh allocation).
  /// Ownership transfers to the caller until release(); prefer
  /// WorkspaceLease, which cannot forget the hand-back.
  GraftWorkspace* acquire();

  /// Return a workspace obtained from acquire(). Destroys it instead of
  /// pooling when max_idle() workspaces are already idle. `workspace`
  /// may be nullptr (no-op).
  void release(GraftWorkspace* workspace);

  /// Drop every idle workspace (outstanding ones are unaffected).
  void trim();

  /// Idle-retention bound; releases beyond it free the workspace.
  void set_max_idle(std::size_t max_idle);
  std::size_t max_idle() const;

  std::size_t idle() const;         ///< workspaces parked in the pool
  std::size_t outstanding() const;  ///< acquired and not yet released
  std::size_t created() const;      ///< total allocations ever made

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<GraftWorkspace>> idle_;
  std::size_t outstanding_ = 0;
  std::size_t created_ = 0;
  std::size_t max_idle_ = 16;
};

/// Move-only RAII handle on a pooled workspace. The destructor returns
/// the workspace; release() does it early (the explicit hand-back the
/// 3-arg ms_bfs_graft overload's thread_local never offered).
class WorkspaceLease {
 public:
  WorkspaceLease() noexcept = default;
  explicit WorkspaceLease(WorkspacePool& pool)
      : pool_(&pool), workspace_(pool.acquire()) {}
  ~WorkspaceLease() { release(); }
  WorkspaceLease(WorkspaceLease&& other) noexcept
      : pool_(other.pool_), workspace_(other.workspace_) {
    other.pool_ = nullptr;
    other.workspace_ = nullptr;
  }
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      workspace_ = other.workspace_;
      other.pool_ = nullptr;
      other.workspace_ = nullptr;
    }
    return *this;
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  /// Hand the workspace back now; the lease becomes empty.
  void release() {
    if (workspace_ != nullptr) pool_->release(workspace_);
    workspace_ = nullptr;
    pool_ = nullptr;
  }

  GraftWorkspace& get() const noexcept { return *workspace_; }
  explicit operator bool() const noexcept { return workspace_ != nullptr; }

 private:
  WorkspacePool* pool_ = nullptr;
  GraftWorkspace* workspace_ = nullptr;
};

class SessionContext {
 public:
  SessionContext();
  ~SessionContext();
  SessionContext(const SessionContext&) = delete;
  SessionContext& operator=(const SessionContext&) = delete;

  /// Process-unique session id (stamped into serve/ responses and
  /// useful when labelling per-session artifacts).
  std::uint64_t id() const noexcept { return id_; }

  /// The parallel_region() probe pair, per session: the width of the
  /// team most recently opened under this session (requested width
  /// before the region opens, overwritten with the granted width from
  /// inside it) and the count of regions opened so far. Regression
  /// tests pin a thread count and assert on the width (tests/
  /// test_engine_registry.cpp, tests/test_session_context.cpp); the
  /// benchmark counts regions per op.
  std::atomic<int>& team_width() noexcept { return team_width_; }
  std::atomic<std::uint64_t>& region_epoch() noexcept {
    return region_epoch_;
  }

  /// This session's trace collector (see obs/trace.hpp). The obs::
  /// free functions route here for whichever session is ambient.
  obs::TraceSink& trace() noexcept { return trace_; }

  /// This session's warm-workspace pool.
  WorkspacePool& workspaces() noexcept { return workspaces_; }

  /// Per-session override of the stress-build yield-jitter period
  /// (runtime/atomics.hpp): 0 disables jitter for threads bound to this
  /// session, N yields with probability 1/N. Until set (or after
  /// clear), the session inherits the process-wide period from
  /// stress::set_yield_period(). No-op state in non-stress builds.
  void set_yield_period(std::uint32_t period) noexcept {
    yield_period_.store(period, std::memory_order_relaxed);
  }
  void clear_yield_period() noexcept {
    yield_period_.store(kInheritYieldPeriod, std::memory_order_relaxed);
  }
  /// The raw override slot (kInheritYieldPeriod when inheriting); use
  /// stress::effective_yield_period() for the resolved value.
  std::uint32_t yield_period_override() const noexcept {
    return yield_period_.load(std::memory_order_relaxed);
  }
  static constexpr std::uint32_t kInheritYieldPeriod = 0xffffffffu;

 private:
  const std::uint64_t id_;
  std::atomic<int> team_width_{0};
  std::atomic<std::uint64_t> region_epoch_{0};
  std::atomic<std::uint32_t> yield_period_{kInheritYieldPeriod};
  obs::TraceSink trace_;
  WorkspacePool workspaces_;
};

/// The process-wide fallback session: what every thread uses until a
/// SessionScope binds something else. Pre-session code paths therefore
/// behave exactly as before this refactor -- one shared width probe,
/// one shared trace, one shared pool.
SessionContext& default_session();

/// The calling thread's bound session, or default_session() when none
/// is bound. parallel_region() propagates the opener's binding onto
/// every team thread for the duration of the region.
SessionContext& ambient_session() noexcept;

/// True when the calling thread has an explicit binding (ambient_
/// session() would not fall back to the default).
bool has_ambient_session() noexcept;

namespace detail {
/// Swap the calling thread's binding; returns the previous one
/// (nullptr = unbound). SessionScope is the only intended caller.
SessionContext* exchange_ambient_session(SessionContext* session) noexcept;
}  // namespace detail

/// RAII binder: makes `session` the calling thread's ambient session
/// for the scope's lifetime, restoring the previous binding after.
/// Scopes nest (inner binding wins) and must be destroyed in LIFO
/// order on a given thread, which stack scoping guarantees.
class SessionScope {
 public:
  explicit SessionScope(SessionContext& session) noexcept
      : previous_(detail::exchange_ambient_session(&session)) {}
  ~SessionScope() { detail::exchange_ambient_session(previous_); }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  SessionContext* previous_;
};

}  // namespace graftmatch
