// MatchServer: the concurrent matching-as-a-service core.
//
// A bounded pool of worker threads, each owning one long-lived
// SessionContext, drains a bounded request queue through a batching
// dispatcher. Sessions are the point: a worker's width probe, trace
// sink, and warm workspace pool persist across requests (so repeat
// solves of same-shaped graphs skip allocation) and never touch another
// worker's -- the isolation that runtime/context.hpp exists to provide.
//
// Batching is the throughput lever: MS-BFS-Graft is natively
// multi-source, so concurrent requests agreeing on (graph, solver,
// initializer, reduce, kernel) are coalesced by the
// BatchScheduler (serve/batch.hpp) into ONE engine::run per group
// within a bounded window, and the single result is fanned back out to
// every member's promise. batch_max = 1 restores the one-solve-per-request
// behavior.
//
// Deadlines are enforced twice. At admission, a request whose
// `deadline_ms` is already implied unmeetable by the queue backlog
// (depth x the EWMA of recent per-request service time / workers) is
// rejected immediately -- failing fast beats queueing work that will be
// thrown away. At dispatch, a batch member whose absolute deadline has
// passed gets a `deadline exceeded` response instead of a solve.
//
// Every solved response is audited against the roster's load-time
// Hopcroft-Karp oracle (ServerOptions::check_cardinality): a served
// matching that is not maximum is a bug, and the server says so rather
// than returning it as a success.
//
// Transport-free by design: this header is the in-process API
// (try_submit/solve), used directly by bench_serve and the tests; the
// Unix-domain-socket front end (serve/uds.hpp) is a thin framing layer
// over the same solve() call.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "graftmatch/runtime/context.hpp"
#include "graftmatch/serve/batch.hpp"
#include "graftmatch/serve/bounded_queue.hpp"
#include "graftmatch/serve/protocol.hpp"
#include "graftmatch/serve/roster.hpp"

namespace graftmatch::serve {

struct ServerOptions {
  /// Worker threads, each with its own long-lived SessionContext. Total
  /// solver parallelism is workers * per-request width, so the useful
  /// shapes are many 1-wide sessions (throughput) or few wide ones
  /// (latency on big graphs).
  int workers = 2;
  /// Admission bound: requests queued but not yet picked up. Full queue
  /// => reject.
  std::size_t queue_capacity = 64;
  /// Default per-request solver width when MatchRequest::threads <= 0.
  int solver_threads = 1;
  /// Start workers in the constructor. Tests set false to fill the
  /// queue deterministically before anything drains it.
  bool autostart = true;
  /// Audit each response's cardinality against the roster oracle and
  /// fail the response on mismatch.
  bool check_cardinality = true;
  /// Largest coalesced group one solve may answer; 1 disables batching.
  std::size_t batch_max = 16;
  /// Coalescing window in microseconds: how long an undersized batch
  /// waits for more same-key arrivals before dispatching. 0 = dispatch
  /// with whatever was already queued.
  std::int64_t batch_window_us = 200;
  /// Seed for the admission deadline gate's service-time EWMA, in
  /// milliseconds per request. 0 disables the gate until the first
  /// completed solve provides a real measurement.
  double assumed_service_ms = 0.0;
};

/// Monotonic totals since construction. accepted counts requests that
/// entered the queue; completed + failed + expired partition the
/// accepted ones that finished (failed = error response or audit
/// mismatch; expired = deadline passed before dispatch; neither is a
/// rejection).
struct ServerCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  /// Dispatched groups (a singleton counts as a batch of one).
  std::uint64_t batches = 0;
  /// Requests served as members of a group of >= 2 (the coalescing win:
  /// solves avoided = coalesced - batches over the multi-member groups).
  std::uint64_t coalesced = 0;
};

class MatchServer {
 public:
  /// The roster must outlive the server; graphs are served by
  /// reference, never copied per request.
  explicit MatchServer(const GraphRoster& roster, ServerOptions options = {});
  ~MatchServer();
  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Spin up the worker pool (idempotent; a no-op after stop()).
  void start();
  /// Close admission, drain the backlog, join the workers. Pending
  /// accepted requests still get real responses (or `deadline
  /// exceeded` ones when their deadline passed while queued).
  void stop();

  /// Non-blocking submit. On acceptance, `response` is a future the
  /// serving worker fulfills; returns false (future untouched) when the
  /// queue is full, the server is stopped, or the request's deadline is
  /// already unmeetable given the backlog. When `reject_reason` is
  /// non-null it receives the reason for a false return.
  bool try_submit(MatchRequest request, std::future<MatchResponse>& response,
                  std::string* reject_reason = nullptr);

  /// Blocking convenience: submit and wait. A full queue (or an
  /// unmeetable deadline) yields an immediate response with
  /// rejected=true rather than blocking, so closed-loop clients feel
  /// backpressure as a fast failure.
  MatchResponse solve(MatchRequest request);

  const GraphRoster& roster() const noexcept { return roster_; }
  const ServerOptions& options() const noexcept { return options_; }
  ServerCounters counters() const;
  std::size_t queue_depth() const { return queue_.size(); }
  /// The admission gate's current per-request service estimate (ms).
  double service_estimate_ms() const {
    return service_ewma_ms_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(SessionContext& session);
  /// One solve answering `group_size` coalesced requests; the returned
  /// response is the fan-out template (everything but per-member
  /// bookkeeping).
  MatchResponse handle(SessionContext& session, const MatchRequest& request,
                       std::size_t group_size);
  /// Queue-backlog wait estimate for the admission deadline gate.
  double estimated_backlog_ms() const;
  void record_service_ms(double per_request_ms);

  const GraphRoster& roster_;
  const ServerOptions options_;
  BoundedQueue<ServerTask> queue_;
  BatchScheduler scheduler_;
  /// One session per worker, stable addresses (workers hold references
  /// across their whole lifetime).
  std::vector<std::unique_ptr<SessionContext>> sessions_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<double> service_ewma_ms_;
};

}  // namespace graftmatch::serve
