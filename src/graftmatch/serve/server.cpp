#include "graftmatch/serve/server.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch::serve {

BatchKey batch_key(const MatchRequest& request) {
  return BatchKey{request.graph, request.solver, request.initializer,
                  request.reduce, request.kernel};
}

MatchServer::MatchServer(const GraphRoster& roster, ServerOptions options)
    : roster_(roster),
      options_(options),
      queue_(options.queue_capacity),
      service_ewma_ms_(options.assumed_service_ms > 0.0
                           ? options.assumed_service_ms
                           : 0.0) {
  if (options_.autostart) start();
}

MatchServer::~MatchServer() { stop(); }

void MatchServer::start() {
  if (started_ || stopped_) return;
  started_ = true;
  const int workers = options_.workers > 0 ? options_.workers : 1;
  sessions_.reserve(static_cast<std::size_t>(workers));
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    sessions_.push_back(std::make_unique<SessionContext>());
    SessionContext& session = *sessions_.back();
    workers_.emplace_back([this, &session] { worker_loop(session); });
  }
}

void MatchServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

double MatchServer::estimated_backlog_ms() const {
  const double per_request = service_ewma_ms_.load(std::memory_order_relaxed);
  if (per_request <= 0.0) return 0.0;
  const double workers =
      static_cast<double>(std::max(1, options_.workers));
  // Conservative on purpose: this assumes the backlog drains one
  // request per solve. Shared solves usually drain same-key runs
  // faster, so the gate over-rejects tight deadlines rather than
  // admitting work destined to expire in the queue.
  return static_cast<double>(queue_.size()) * per_request / workers;
}

void MatchServer::record_service_ms(double per_request_ms) {
  double current = service_ewma_ms_.load(std::memory_order_relaxed);
  double next;
  do {
    next = current <= 0.0 ? per_request_ms
                          : 0.75 * current + 0.25 * per_request_ms;
  } while (!service_ewma_ms_.compare_exchange_weak(
      current, next, std::memory_order_relaxed));
}

bool MatchServer::try_submit(MatchRequest request,
                             std::future<MatchResponse>& response,
                             std::string* reject_reason) {
  ServerTask task;
  if (request.deadline_ms > 0) {
    // Admission half of deadline enforcement: when the backlog already
    // implies this deadline cannot be met, reject now instead of
    // queueing a request destined to expire.
    const double backlog_ms = estimated_backlog_ms();
    if (backlog_ms > static_cast<double>(request.deadline_ms)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      if (reject_reason != nullptr) {
        *reject_reason = "deadline of " + std::to_string(request.deadline_ms) +
                         " ms unmeetable: estimated backlog is " +
                         std::to_string(static_cast<std::int64_t>(backlog_ms)) +
                         " ms";
      }
      return false;
    }
    // Saturate: now + deadline_ms overflows the clock's int64
    // nanoseconds for deadlines beyond ~292 years from boot.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now);
    task.has_deadline = true;
    task.deadline = request.deadline_ms < headroom.count()
                        ? now + std::chrono::milliseconds(request.deadline_ms)
                        : Clock::time_point::max();
  }
  std::future<MatchResponse> pending = task.promise.get_future();
  if (join_flight(request, task.promise)) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    response = std::move(pending);
    return true;
  }
  task.request = std::move(request);
  if (!queue_.try_push(std::move(task))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (reject_reason != nullptr) {
      *reject_reason = "server at capacity (queue full or stopped)";
    }
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  response = std::move(pending);
  return true;
}

MatchResponse MatchServer::solve(MatchRequest request) {
  const std::string graph = request.graph;
  std::future<MatchResponse> pending;
  std::string reason;
  if (!try_submit(std::move(request), pending, &reason)) {
    MatchResponse response;
    response.ok = false;
    response.rejected = true;
    response.graph = graph;
    response.error = reason;
    return response;
  }
  return pending.get();
}

bool MatchServer::join_flight(const MatchRequest& request,
                              std::promise<MatchResponse>& promise) {
  const std::scoped_lock lock(flights_mutex_);
  if (flights_.empty() || queue_.closed()) return false;
  const BatchKey key = batch_key(request);
  for (Flight& flight : flights_) {
    if (flight.key == key) {
      flight.joiners.push_back(std::move(promise));
      return true;
    }
  }
  return false;
}

ServerCounters MatchServer::counters() const {
  ServerCounters counters;
  counters.accepted = accepted_.load(std::memory_order_relaxed);
  counters.rejected = rejected_.load(std::memory_order_relaxed);
  counters.completed = completed_.load(std::memory_order_relaxed);
  counters.failed = failed_.load(std::memory_order_relaxed);
  counters.expired = expired_.load(std::memory_order_relaxed);
  counters.batches = batches_.load(std::memory_order_relaxed);
  counters.coalesced = coalesced_.load(std::memory_order_relaxed);
  return counters;
}

void MatchServer::worker_loop(SessionContext& session) {
  const SessionScope scope(session);
  std::vector<ServerTask> batch;
  std::vector<ServerTask> live;
  ServerTask seed;
  while (queue_.pop(seed)) {
    const BatchKey key = batch_key(seed.request);
    batch.push_back(std::move(seed));
    queue_.extract_if(
        [&](const ServerTask& task) { return batch_key(task.request) == key; },
        batch);
    // Dispatch half of deadline enforcement: members whose absolute
    // deadline passed while queued are answered without a solve.
    const auto now = std::chrono::steady_clock::now();
    for (ServerTask& task : batch) {
      if (task.has_deadline && now >= task.deadline) {
        MatchResponse response;
        response.ok = false;
        response.expired = true;
        response.graph = task.request.graph;
        response.solver = task.request.solver;
        response.initializer = task.request.initializer;
        response.error = "deadline exceeded (" +
                         std::to_string(task.request.deadline_ms) +
                         " ms) before dispatch";
        response.session = session.id();
        expired_.fetch_add(1, std::memory_order_relaxed);
        task.promise.set_value(std::move(response));
      } else {
        live.push_back(std::move(task));
      }
    }
    batch.clear();
    if (live.empty()) continue;

    {
      const std::scoped_lock lock(flights_mutex_);
      flights_.push_back(Flight{key, session.id(), {}});
    }
    const std::int64_t span_start = obs::timestamp();
    MatchResponse response;
    const Timer service_timer;
    try {
      response = handle(session, live.front().request);
    } catch (const std::exception& e) {
      response = MatchResponse{};
      response.graph = live.front().request.graph;
      response.error = e.what();
    }
    // Unregister and take the joiners in one critical section: a
    // request that misses this flight queues for the next solve.
    std::vector<std::promise<MatchResponse>> joiners;
    {
      const std::scoped_lock lock(flights_mutex_);
      const auto mine = std::find_if(
          flights_.begin(), flights_.end(),
          [&](const Flight& flight) { return flight.owner == session.id(); });
      joiners = std::move(mine->joiners);
      flights_.erase(mine);
    }
    const std::size_t answered = live.size() + joiners.size();
    obs::emit_complete(obs::names::kServeBatch, span_start,
                       static_cast<std::int64_t>(answered),
                       response.cardinality);
    record_service_ms(service_timer.elapsed() * 1000.0 /
                      static_cast<double>(answered));
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (answered >= 2) {
      coalesced_.fetch_add(answered, std::memory_order_relaxed);
    }
    response.session = session.id();
    response.batch = static_cast<int>(answered);
    if (response.ok) {
      completed_.fetch_add(answered, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(answered, std::memory_order_relaxed);
    }
    // Fan the one result out to every member and joiner; the solve
    // answered all of them.
    for (ServerTask& task : live) task.promise.set_value(response);
    for (auto& promise : joiners) promise.set_value(response);
    live.clear();  // drop the fulfilled promises before blocking again
  }
}

MatchResponse MatchServer::handle(SessionContext& session,
                                  const MatchRequest& request) {
  MatchResponse response;
  response.graph = request.graph;
  response.solver = request.solver;
  response.initializer = request.initializer;

  const RosterEntry* entry = roster_.find(request.graph);
  if (entry == nullptr) {
    response.error = "unknown graph \"" + request.graph + "\"";
    return response;
  }
  response.maximum = entry->maximum_cardinality;
  if (engine::find_solver_or_null(request.solver) == nullptr) {
    response.error = "unknown solver \"" + request.solver + "\"";
    return response;
  }
  if (engine::find_initializer_or_null(request.initializer) == nullptr) {
    response.error = "unknown initializer \"" + request.initializer + "\"";
    return response;
  }

  RunConfig config;
  if (!parse_reduce_mode(request.reduce, config.reduce)) {
    response.error = "unknown reduce mode \"" + request.reduce + "\"";
    return response;
  }
  if (!parse_bottom_up_kernel(request.kernel, config.bottom_up_kernel)) {
    response.error = "unknown kernel arm \"" + request.kernel + "\"";
    return response;
  }
  // The width comes off the wire: clamp it so a client cannot ask the
  // OpenMP runtime for more threads than the machine has cores. It is a
  // cap; the solve picks its own width under it (solve_width).
  config.threads = std::clamp(
      request.threads > 0 ? request.threads : options_.solver_threads, 1,
      omp_get_num_procs());

  const std::size_t entry_index =
      static_cast<std::size_t>(entry - roster_.entries().data());
  const std::int64_t span_start = obs::timestamp();

  Matching matching;
  // One solve answers the whole group: the result of a maximum-matching
  // run does not depend on how many identical requests wait on it.
  const RunStats stats = engine::run(session, request.solver,
                                     request.initializer, entry->graph,
                                     matching, config);

  obs::emit_complete(obs::names::kServeRequest, span_start,
                     static_cast<std::int64_t>(entry_index),
                     stats.final_cardinality);

  response.cardinality = stats.final_cardinality;
  response.threads = stats.threads_used;
  response.seconds = stats.seconds;
  if (options_.check_cardinality &&
      stats.final_cardinality != entry->maximum_cardinality) {
    response.error = "cardinality audit failed: served " +
                     std::to_string(stats.final_cardinality) +
                     ", oracle says " +
                     std::to_string(entry->maximum_cardinality);
    return response;
  }
  response.ok = true;
  return response;
}

}  // namespace graftmatch::serve
