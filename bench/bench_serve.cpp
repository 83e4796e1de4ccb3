// Closed-loop load generator for the matching service (serve/).
//
// Loads a small roster once (each graph's maximum cardinality computed
// by the serial Hopcroft-Karp oracle at load time), then drives an
// in-process MatchServer with a FIXED worker pool and a growing set of
// concurrent closed-loop clients, each blocking on solve() and
// immediately issuing the next request. Clients within a level all hit
// the same graph, which is the serving scenario shared solves exist for
// (many callers asking the same question); the level's
// solves_per_request column measures how many solves the server saved.
//
// Two gates make the bench exit nonzero, so the CI smoke run doubles as
// a correctness gate:
//  * every response must be ok with the roster-oracle cardinality (the
//    server audits this too when check_cardinality is on; the bench
//    re-checks client-side so a broken audit cannot hide);
//  * at >= 4 clients, identical requests must share solves: the
//    level's solve count must be below its completed count.
//
// Knobs (on top of the usual bench env/CLI, see bench_common.hpp):
//   GRAFTMATCH_CLIENTS -- max concurrent clients (default
//                         min(4, hardware threads))
//   GRAFTMATCH_WORKERS -- server worker sessions, deliberately BELOW
//                         the max client count so requests overlap
//                         running solves (default 2)
//   GRAFTMATCH_RUNS    -- requests per client per level (default 24)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using graftmatch::serve::GraphRoster;
using graftmatch::serve::MatchRequest;
using graftmatch::serve::MatchResponse;
using graftmatch::serve::MatchServer;
using graftmatch::serve::ServerCounters;
using graftmatch::serve::ServerOptions;

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

int max_clients() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_int("GRAFTMATCH_CLIENTS",
                 static_cast<int>(std::min(4u, std::max(2u, hw))));
}

double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

struct LevelResult {
  int clients = 0;
  std::int64_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 1.0;
  std::uint64_t solves = 0;
  std::uint64_t completed = 0;
  std::int64_t failures = 0;
};

LevelResult run_level(const GraphRoster& roster, std::size_t graph_index,
                      int workers, int clients, int requests_per_client) {
  ServerOptions options;
  options.workers = workers;
  options.solver_threads = 1;
  options.queue_capacity = static_cast<std::size_t>(clients) * 4 + 8;
  MatchServer server(roster, options);

  const std::string graph_name = roster.at(graph_index).name;
  const std::int64_t maximum = roster.at(graph_index).maximum_cardinality;
  std::vector<std::vector<double>> latencies_ms(
      static_cast<std::size_t>(clients));
  std::atomic<std::int64_t> failures{0};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      std::vector<double>& mine = latencies_ms[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        MatchRequest request;
        request.graph = graph_name;
        const auto start = std::chrono::steady_clock::now();
        const MatchResponse response = server.solve(std::move(request));
        const auto stop = std::chrono::steady_clock::now();
        mine.push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
        const bool good = response.ok && !response.rejected &&
                          response.cardinality == maximum;
        if (!good) {
          failures.fetch_add(1, std::memory_order_relaxed);
          if (!response.error.empty()) {
            std::cerr << "bench_serve: request failed: " << response.error
                      << "\n";
          }
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();
  const auto wall_stop = std::chrono::steady_clock::now();
  server.stop();
  const ServerCounters counters = server.counters();

  LevelResult result;
  result.clients = clients;
  result.requests = static_cast<std::int64_t>(clients) * requests_per_client;
  result.seconds =
      std::chrono::duration<double>(wall_stop - wall_start).count();
  result.rps = result.seconds > 0.0
                   ? static_cast<double>(result.requests) / result.seconds
                   : 0.0;
  std::vector<double> all_ms;
  for (const auto& mine : latencies_ms) {
    all_ms.insert(all_ms.end(), mine.begin(), mine.end());
  }
  std::sort(all_ms.begin(), all_ms.end());
  result.p50_ms = percentile(all_ms, 0.50);
  result.p99_ms = percentile(all_ms, 0.99);
  result.mean_batch =
      counters.batches > 0
          ? static_cast<double>(counters.completed + counters.failed) /
                static_cast<double>(counters.batches)
          : 1.0;
  result.solves = counters.batches;
  result.completed = counters.completed;
  result.failures = failures.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graftmatch;
  bench::bench_entry(argc, argv, "bench_serve",
                     "matching-as-a-service throughput/latency: closed-loop "
                     "clients against an in-process MatchServer whose "
                     "identical requests share solves");

  // A small, shape-diverse roster; the serving point is many solves
  // over a fixed graph set, not one big solve.
  const std::vector<std::string> roster_names = {
      "kkt_power-like", "rmat-like", "amazon-like"};
  const GraphRoster roster =
      GraphRoster::from_suite(roster_names, bench::size_factor(),
                              bench::seed());
  std::cout << "roster: " << roster.size() << " graphs";
  for (const auto& entry : roster.entries()) {
    std::cout << "  " << entry.name << " (max " << entry.maximum_cardinality
              << ")";
  }
  std::cout << "\n";

  const int clients_max = max_clients();
  const int workers = env_int("GRAFTMATCH_WORKERS", 2);
  const int requests_per_client = bench::run_count(24);
  std::cout << "workers: " << workers << ", clients up to " << clients_max
            << ", " << requests_per_client << " requests/client\n\n";

  bench::CsvWriter csv("bench_serve",
                       {"graph", "clients", "requests", "seconds", "rps",
                        "p50_ms", "p99_ms", "mean_batch", "solves_per_request",
                        "failures"});

  // Client levels: powers of two up to the max (always including it),
  // so the interesting regime -- more clients than workers -- is hit
  // even at the default GRAFTMATCH_CLIENTS=4.
  std::vector<int> levels;
  for (int clients = 1; clients < clients_max; clients *= 2) {
    levels.push_back(clients);
  }
  levels.push_back(clients_max);

  std::cout << "graph            clients   req/s     p50 ms    p99 ms"
            << "    mean|B|   solves/req\n";
  std::int64_t total_failures = 0;
  std::vector<std::string> unshared;
  for (std::size_t graph_index = 0; graph_index < roster.size();
       ++graph_index) {
    const std::string& graph = roster.at(graph_index).name;
    for (const int clients : levels) {
      const LevelResult level = run_level(roster, graph_index, workers,
                                          clients, requests_per_client);
      const double solves_per_request =
          level.completed > 0 ? static_cast<double>(level.solves) /
                                    static_cast<double>(level.completed)
                              : 0.0;
      if (clients >= 4 && level.solves >= level.completed) {
        unshared.push_back(graph + " at " + std::to_string(clients) +
                           " clients");
      }
      total_failures += level.failures;
      std::printf("%-16s %7d   %7.1f   %7.2f   %7.2f   %7.2f   %7.3f\n",
                  graph.c_str(), level.clients, level.rps, level.p50_ms,
                  level.p99_ms, level.mean_batch, solves_per_request);
      csv.row({graph,
               bench::CsvWriter::cell(
                   static_cast<std::int64_t>(level.clients)),
               bench::CsvWriter::cell(level.requests),
               bench::CsvWriter::cell(level.seconds),
               bench::CsvWriter::cell(level.rps),
               bench::CsvWriter::cell(level.p50_ms),
               bench::CsvWriter::cell(level.p99_ms),
               bench::CsvWriter::cell(level.mean_batch),
               bench::CsvWriter::cell(solves_per_request),
               bench::CsvWriter::cell(level.failures)});
    }
  }

  std::cout << "\nartifact: " << csv.path() << "\n";
  if (total_failures > 0) {
    std::cerr << "bench_serve: " << total_failures
              << " request(s) failed the cardinality/ok gate\n";
    return 1;
  }
  for (const std::string& level : unshared) {
    std::cerr << "bench_serve: identical requests shared no solve (" << level
              << ")\n";
  }
  return unshared.empty() ? 0 : 1;
}
