// BatchScheduler: the coalescing dispatcher between the admission queue
// and the server workers.
//
// MS-BFS-Graft is natively multi-source -- one run amortizes traversal
// across many active trees -- so N concurrent requests for the same
// (graph, solver, initializer, reduce, kernel) key do
// not need N solver runs: one run answers all of them. The scheduler
// turns the FIFO backlog into groups: a worker seeds a batch with the
// oldest queued task, claims every other queued task with the same key
// (extract_if, which leaves other groups' queue positions untouched),
// and then holds a bounded coalescing window open (wait_push_until) so
// requests arriving microseconds apart ride the same solve. The worker
// executes one engine::run for the group and fans the single
// result out to every member's promise.
//
// The scheduler is shared by all workers and keeps NO private state --
// every pending task stays in the BoundedQueue until a batch claims it,
// so queue depth remains the single truth admission control (including
// the deadline gate's backlog estimate) reasons about, and no worker
// can strand another group's tasks in a private stash.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "graftmatch/serve/bounded_queue.hpp"
#include "graftmatch/serve/protocol.hpp"

namespace graftmatch::serve {

/// One accepted request in flight: the decoded request, the promise the
/// serving worker fulfills, and the absolute deadline admission stamped
/// from MatchRequest::deadline_ms (has_deadline false = none).
struct ServerTask {
  MatchRequest request;
  std::promise<MatchResponse> promise;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
};

/// The coalescing key: requests agreeing on all five fields are
/// answered by one solve, so each group's seed is validated with the
/// same lookup fields as every member. `threads` is deliberately
/// absent -- width is an execution hint, not a result-changing input
/// (every solver is cardinality-deterministic across widths), so the
/// group runs at the seed member's width and everyone shares the
/// answer.
struct BatchKey {
  std::string graph;
  std::string solver;
  std::string initializer;
  std::string reduce;
  std::string kernel;

  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

BatchKey batch_key(const MatchRequest& request);

struct BatchOptions {
  /// Largest group one solve may answer; 1 disables coalescing (every
  /// request gets its own solve, the pre-batching behavior).
  std::size_t max_batch = 16;
  /// How long a worker holds an undersized batch open waiting for more
  /// same-key arrivals, in microseconds. 0 = dispatch immediately with
  /// whatever was already queued.
  std::int64_t window_us = 200;
};

class BatchScheduler {
 public:
  BatchScheduler(BoundedQueue<ServerTask>& queue, BatchOptions options)
      : queue_(queue), options_(options) {}
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Assemble the next batch into `out` (cleared first): block for a
  /// seed task, claim queued same-key tasks, then extend through the
  /// coalescing window while the batch is undersized. Returns false
  /// only when the queue is closed and drained -- the workers' exit
  /// signal. Thread-safe; concurrent callers assemble disjoint batches.
  bool next_batch(std::vector<ServerTask>& out);

  const BatchOptions& options() const noexcept { return options_; }

 private:
  BoundedQueue<ServerTask>& queue_;
  const BatchOptions options_;
};

}  // namespace graftmatch::serve
