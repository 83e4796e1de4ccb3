// matchd: a matching-as-a-service daemon on a Unix domain socket.
//
// Loads a roster of generator instances once (computing each graph's
// maximum cardinality with the serial Hopcroft-Karp oracle), then
// serves matching requests over a length-prefixed key=value protocol
// (src/graftmatch/serve/protocol.hpp). Each server worker owns a
// long-lived SessionContext, so concurrent requests get isolated stats,
// traces, and warm workspace pools. Identical requests share one solve:
// a request that matches a running solve's (graph, solver, init,
// reduce, kernel) joins it instead of queueing for another.
//
// Usage:
//   ./matchd --socket /tmp/graftmatch.sock [options]
//
// Options:
//   --socket PATH   socket path (default /tmp/graftmatch.sock)
//   --graphs LIST   comma-separated suite instances to load
//                   (default kkt_power-like,rmat-like)
//   --size F        workload size factor (default 0.05)
//   --seed S        generator seed (default 1)
//   --workers N     server worker sessions (default 2)
//   --queue N       admission-control queue capacity (default 64)
//   --demo          serve one in-process demo client, print the
//                   exchange, and exit (used by the CI smoke test)
//
// Talk to it from another terminal, e.g. with the Python one-liner:
//   python3 - <<'EOF'
//   import socket, struct
//   s = socket.socket(socket.AF_UNIX); s.connect("/tmp/graftmatch.sock")
//   req = b"graph=rmat-like\nsolver=graft\n"
//   s.sendall(struct.pack("<I", len(req)) + req)
//   n, = struct.unpack("<I", s.recv(4)); print(s.recv(n).decode())
//   EOF
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graftmatch/graftmatch.hpp"

namespace {

using namespace graftmatch;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--graphs a,b,c] [--size F] "
               "[--seed S]\n"
               "       [--workers N] [--queue N] [--demo]\n",
               argv0);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    if (end > pos) out.push_back(csv.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

void print_response(const serve::MatchResponse& response) {
  if (response.ok) {
    std::printf("  %-16s %-8s |M| = %lld / %lld  %.3fs  (session %llu, "
                "%d thread%s)\n",
                response.graph.c_str(), response.solver.c_str(),
                static_cast<long long>(response.cardinality),
                static_cast<long long>(response.maximum), response.seconds,
                static_cast<unsigned long long>(response.session),
                response.threads, response.threads == 1 ? "" : "s");
  } else {
    std::printf("  %-16s %-8s FAILED: %s\n", response.graph.c_str(),
                response.solver.c_str(), response.error.c_str());
  }
}

/// The --demo exchange: a client connects over the real socket and
/// exercises the solver/initializer/mode surface plus the error path.
/// Returns the number of failures (unexpected outcomes).
int run_demo(const std::string& socket_path) {
  serve::UdsClient client;
  std::string error;
  if (!client.connect(socket_path, error)) {
    std::fprintf(stderr, "demo client: %s\n", error.c_str());
    return 1;
  }
  int failures = 0;
  const auto expect = [&](serve::MatchRequest request, bool want_ok) {
    serve::MatchResponse response;
    if (!client.request(request, response, error)) {
      std::fprintf(stderr, "demo client: round trip failed: %s\n",
                   error.c_str());
      ++failures;
      return;
    }
    print_response(response);
    if (response.ok != want_ok) ++failures;
    if (want_ok && response.cardinality != response.maximum) ++failures;
  };

  serve::MatchRequest request;
  request.graph = "rmat-like";
  expect(request, true);

  request.solver = "pf";
  expect(request, true);

  request.graph = "kkt_power-like";
  request.solver = "graft";
  request.reduce = "d1";
  expect(request, true);

  request.reduce = "none";
  request.graph = "no-such-graph";
  expect(request, false);  // unknown graph: error response, not a crash

  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/graftmatch.sock";
  std::string graphs_csv = "kkt_power-like,rmat-like";
  double size = 0.05;
  std::uint64_t seed = 1;
  serve::ServerOptions options;
  bool demo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--graphs") graphs_csv = next();
    else if (arg == "--size")
      size = cli::parse_double_arg("--size", next().c_str(), 1e-6, 1e6);
    else if (arg == "--seed")
      seed = cli::parse_uint_arg("--seed", next().c_str());
    else if (arg == "--workers")
      options.workers = static_cast<int>(
          cli::parse_int_arg("--workers", next().c_str(), 1, 1024));
    else if (arg == "--queue")
      options.queue_capacity = static_cast<std::size_t>(
          cli::parse_int_arg("--queue", next().c_str(), 1, 1 << 20));
    else if (arg == "--demo") demo = true;
    else usage(argv[0]);
  }

  const std::vector<std::string> graph_names = split_csv(graphs_csv);
  if (graph_names.empty()) usage(argv[0]);

  std::printf("loading %zu graph(s) at size %g...\n", graph_names.size(),
              size);
  serve::GraphRoster roster;
  try {
    roster = serve::GraphRoster::from_suite(graph_names, size, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const serve::RosterEntry& entry : roster.entries()) {
    std::printf("  %-16s %lld x %lld, %lld edges, maximum |M| = %lld\n",
                entry.name.c_str(),
                static_cast<long long>(entry.graph.num_x()),
                static_cast<long long>(entry.graph.num_y()),
                static_cast<long long>(entry.graph.num_edges()),
                static_cast<long long>(entry.maximum_cardinality));
  }

  serve::MatchServer server(roster, options);
  serve::UdsServer uds(server, socket_path);
  std::string error;
  if (!uds.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::printf("serving on %s with %d worker session(s), queue %zu\n",
              socket_path.c_str(), options.workers, options.queue_capacity);

  if (demo) {
    std::printf("demo exchange:\n");
    const int failures = run_demo(socket_path);
    uds.stop();
    server.stop();
    const serve::ServerCounters counters = server.counters();
    std::printf(
        "served %llu request(s), %llu completed, %llu failed, "
        "%llu solve(s) dispatched\n",
        static_cast<unsigned long long>(counters.accepted),
        static_cast<unsigned long long>(counters.completed),
        static_cast<unsigned long long>(counters.failed),
        static_cast<unsigned long long>(counters.batches));
    return failures == 0 ? 0 : 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("shutting down\n");
  uds.stop();
  server.stop();
  return 0;
}
