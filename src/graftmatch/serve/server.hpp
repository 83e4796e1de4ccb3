// MatchServer: the concurrent matching-as-a-service core.
//
// A bounded pool of worker threads, each owning one long-lived
// SessionContext, drains a bounded request queue. Sessions are the
// point: a worker's width probe, trace sink, and warm workspace pool
// persist across requests (so repeat solves of same-shaped graphs skip
// allocation) and never touch another worker's -- the isolation that
// runtime/context.hpp exists to provide.
//
// Identical questions share one solve (singleflight). Requests that
// agree on the BatchKey (graph, solver, initializer, reduce, kernel)
// have the same answer, because roster graphs never change. A worker
// pops the oldest queued task, claims every queued task with the same
// key, and registers the group as a *flight* while its one
// engine::run executes; a same-key request submitted during that solve
// joins the flight instead of queueing for a second solve. The single
// result is fanned out to members and joiners alike.
//
// Deadlines are enforced twice. At admission, a request whose
// `deadline_ms` is already implied unmeetable by the queue backlog
// (depth x the EWMA of recent per-request service time / workers) is
// rejected immediately -- failing fast beats queueing work that will be
// thrown away. At dispatch, a queued member whose absolute deadline has
// passed gets a `deadline exceeded` response instead of a solve. A
// joiner never expires: its solve is already running.
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
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graftmatch/runtime/context.hpp"
#include "graftmatch/serve/bounded_queue.hpp"
#include "graftmatch/serve/protocol.hpp"
#include "graftmatch/serve/roster.hpp"

namespace graftmatch::serve {

/// One queued request: the decoded request, the promise the serving
/// worker fulfills, and the absolute deadline admission stamped from
/// MatchRequest::deadline_ms (has_deadline false = none).
struct ServerTask {
  MatchRequest request;
  std::promise<MatchResponse> promise;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
};

/// The sharing key: requests agreeing on all five fields are answered
/// by one solve. Every field the server validates is in the key, so
/// every member of a group is validated by the solve that answers it.
/// `threads` is deliberately absent -- width is an execution hint, not
/// a result-changing input (every solver is cardinality-deterministic
/// across widths), so the group runs at the seed member's width.
struct BatchKey {
  std::string graph;
  std::string solver;
  std::string initializer;
  std::string reduce;
  std::string kernel;

  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

BatchKey batch_key(const MatchRequest& request);

struct ServerOptions {
  /// Worker threads, each with its own long-lived SessionContext. Total
  /// solver parallelism is workers * per-request width, so the useful
  /// shapes are many 1-wide sessions (throughput) or few wide ones
  /// (latency on big graphs).
  int workers = 2;
  /// Admission bound: requests queued but not yet picked up. Full queue
  /// => reject.
  std::size_t queue_capacity = 64;
  /// Default per-request solver width cap when MatchRequest::threads
  /// <= 0. Every cap is clamped to [1, omp_get_num_procs()].
  int solver_threads = 1;
  /// Start workers in the constructor. Tests set false to fill the
  /// queue deterministically before anything drains it.
  bool autostart = true;
  /// Audit each response's cardinality against the roster oracle and
  /// fail the response on mismatch.
  bool check_cardinality = true;
  /// Seed for the admission deadline gate's service-time EWMA, in
  /// milliseconds per request. 0 disables the gate until the first
  /// completed solve provides a real measurement.
  double assumed_service_ms = 0.0;
};

/// Monotonic totals since construction. accepted counts requests that
/// entered the queue or joined a running solve; completed + failed +
/// expired partition the accepted ones that finished (failed = error
/// response or audit mismatch; expired = deadline passed before
/// dispatch; neither is a rejection).
struct ServerCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  /// Solves dispatched (a request served alone counts as one).
  std::uint64_t batches = 0;
  /// Requests answered by a solve shared with at least one other
  /// request, joiners included.
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

  /// Non-blocking submit. On acceptance -- joining a running same-key
  /// solve, or else entering the queue -- `response` is a future the
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
  /// A solve in progress and the same-key requests that joined it.
  struct Flight {
    BatchKey key;
    std::uint64_t owner = 0;  ///< id of the worker session running it
    std::vector<std::promise<MatchResponse>> joiners;
  };

  void worker_loop(SessionContext& session);
  /// Attach `promise` to a running flight with `request`'s key. False
  /// (promise untouched) when none runs or the server is stopping.
  bool join_flight(const MatchRequest& request,
                   std::promise<MatchResponse>& promise);
  /// One solve; the returned response is the fan-out template
  /// (everything but per-member bookkeeping).
  MatchResponse handle(SessionContext& session, const MatchRequest& request);
  /// Queue-backlog wait estimate for the admission deadline gate.
  double estimated_backlog_ms() const;
  void record_service_ms(double per_request_ms);

  const GraphRoster& roster_;
  const ServerOptions options_;
  BoundedQueue<ServerTask> queue_;
  /// Running solves, at most one per worker, so a linear scan is enough.
  std::mutex flights_mutex_;
  std::vector<Flight> flights_;
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
